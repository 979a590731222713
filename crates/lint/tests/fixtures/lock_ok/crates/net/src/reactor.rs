//! Fixture: ascending lock order, I/O only after both guards die.

pub struct ReactorServer;

impl ReactorServer {
    fn scan_and_reply(&self, sh: &Shared, t: &mut Conn) {
        let frame = {
            let progress = sh.progress.lock();
            let inbox = sh.inbox.lock();
            inbox.frame_for(progress.round)
        };
        t.write_all(&frame);
    }

    fn peek(&self, sh: &Shared) -> usize {
        // A statement-temporary guard dies at the semicolon; the later
        // acquisition of a lower rank is therefore legal.
        let pending = sh.inbox.lock().len();
        let progress = sh.progress.lock();
        pending + progress.round
    }
}
