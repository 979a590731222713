//! Fixture: the allow escape hatch — one valid annotation (suppresses its
//! finding and lands in the inventory), one malformed (missing the
//! mandatory reason — itself a gate failure), one finding left bare.

pub struct ReactorServer;

impl ReactorServer {
    pub fn run(&self) {
        self.drive(1);
    }

    fn drive(&self, n: usize) {
        let v: Vec<u8> = vec![0];
        // piano-lint: allow(wire-no-panic, reason = "fixture: invariant documented elsewhere")
        let first = v.first().unwrap();
        let _ = (first, n);
        // piano-lint: allow(wire-no-panic)
        let second = v.last().unwrap();
        let _ = second;
        let third = v.first().unwrap();
        let _ = third;
    }
}
