//! Fixture: lock-order inversion plus blocking I/O under a guard.

pub struct ReactorServer;

impl ReactorServer {
    fn scan_and_reply(&self, sh: &Shared, t: &mut Conn) {
        let inbox = sh.inbox.lock();
        let progress = sh.progress.lock();
        t.write_all(b"decision");
        drop(progress);
        drop(inbox);
    }
}
