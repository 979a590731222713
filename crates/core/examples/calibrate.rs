//! Calibration utility: measures ACTION's ranging accuracy per
//! environment and distance, printing mean absolute error, bias, and
//! spread. This is the tool used to set the environment constants in
//! `piano_acoustics::environment` against the paper's Fig. 1 errors;
//! rerun it after touching transducer gains, dispersion, noise, or jitter
//! parameters.
//!
//! ```text
//! cargo run --release -p piano-core --example calibrate
//! ```

use piano_acoustics::{AcousticField, Environment, Position};
use piano_bluetooth::{BluetoothLink, PairingRegistry};
use piano_core::action::{run_action, DistanceEstimate};
use piano_core::config::ActionConfig;
use piano_core::device::Device;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let trials = 12;
    let cfg = ActionConfig::default();
    for env_fn in [
        Environment::anechoic as fn() -> Environment,
        Environment::office,
        Environment::home,
        Environment::street,
        Environment::restaurant,
    ] {
        let name = env_fn().name.clone();
        for d in [0.5, 1.0, 1.5, 2.0] {
            let mut errs = vec![];
            let mut absent = 0;
            for t in 0..trials {
                let seed = 1000 + t;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut field = AcousticField::new(env_fn(), seed ^ 0x5555);
                let mut link = BluetoothLink::new();
                let mut reg = PairingRegistry::new();
                let a = Device::phone(1, Position::ORIGIN, seed + 7);
                let v = Device::phone(2, Position::new(d, 0.0, 0.0), seed + 13);
                reg.pair(a.id, v.id, &mut rng);
                match run_action(&cfg, &mut field, &mut link, &reg, &a, &v, 0.0, &mut rng)
                    .unwrap()
                    .estimate
                {
                    DistanceEstimate::Measured(est) => errs.push(est - d),
                    DistanceEstimate::SignalAbsent => absent += 1,
                }
            }
            let n = errs.len().max(1) as f64;
            let mean = errs.iter().sum::<f64>() / n;
            let var =
                errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / (n - 1.0).max(1.0);
            let mae = errs.iter().map(|e| e.abs()).sum::<f64>() / n;
            println!(
                "{name:10} d={d:.1}  mae={:6.1}cm  bias={:6.1}cm  std={:5.1}cm  absent={absent}",
                mae * 100.0,
                mean * 100.0,
                var.sqrt() * 100.0
            );
        }
    }
}
