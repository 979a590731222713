//! Fixture: panicking constructs on the wire-reachable path.

pub struct ReactorServer;

impl ReactorServer {
    pub fn run(&self) {
        self.handle_feed(7);
    }

    fn handle_feed(&self, n: usize) {
        let v: Vec<u8> = Vec::new();
        let first = v.first().unwrap();
        if n > *first as usize {
            panic!("bad frame");
        }
        let _ = v[n - 1];
    }

    /// Not reachable from any root: its unwrap must NOT be flagged.
    pub fn maintenance_sweep(&self) {
        let v: Vec<u8> = Vec::new();
        let _ = v.last().unwrap();
    }
}
