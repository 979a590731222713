//! Fixture: the same path written panic-free.

pub struct ReactorServer;

impl ReactorServer {
    pub fn run(&self) {
        self.handle_feed(7);
    }

    fn handle_feed(&self, n: usize) {
        let v: Vec<u8> = vec![1, 2, 3];
        let Some(first) = v.first() else {
            return;
        };
        if n > *first as usize {
            return;
        }
        if let Some(x) = v.get(n - 1) {
            let _ = x;
        }
    }

    /// Unreachable helper: panics here are outside the wire taint scope.
    pub fn maintenance_sweep(&self) {
        let v: Vec<u8> = Vec::new();
        let _ = v.last().unwrap();
    }
}
