//! Crate-internal helpers binding [`FrameReader`] to a [`Transport`]:
//! the client feed handle's blocking and deadline-bounded reads, the
//! read-buffer size the reactor shares, and the error mapping from
//! transport I/O failures into [`PianoError::Transport`].

use std::io;
use std::time::Instant;

use piano_core::error::PianoError;
use piano_core::wire::{FrameReader, Message};

use crate::transport::Transport;

/// Read-buffer size for connection reads: large enough that one read
/// turn can outpace the per-turn drain even for raw `f64` frames, so
/// watermark backpressure is observable under either codec.
pub(crate) const READ_BUF_BYTES: usize = 64 * 1024;

/// Maps a transport I/O failure into the transport error domain.
pub(crate) fn io_transport(e: io::Error) -> PianoError {
    PianoError::Transport(format!("transport I/O failure: {e}"))
}

/// Blocks until one complete frame arrives on `t`.
pub(crate) fn read_frame<T: Transport>(
    t: &mut T,
    reader: &mut FrameReader,
    buf: &mut [u8],
) -> Result<Message, PianoError> {
    loop {
        if let Some(msg) = reader.next_frame()? {
            return Ok(msg);
        }
        match t.read_some(buf) {
            Ok(0) => return Err(PianoError::Transport("connection closed mid-frame".into())),
            Ok(n) => reader.push(&buf[..n]),
            Err(e) => return Err(io_transport(e)),
        }
    }
}

/// Deadline-bounded wait for a read when the caller may have an
/// `Option`al deadline: `None` blocks indefinitely.
pub(crate) fn read_more<T: Transport>(
    t: &mut T,
    buf: &mut [u8],
    deadline: Option<Instant>,
    what: &str,
) -> Result<usize, PianoError> {
    match deadline {
        None => t.read_some(buf).map_err(io_transport),
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                return Err(PianoError::Timeout(format!("{what} deadline elapsed")));
            }
            match t.read_timeout(buf, d - now) {
                Ok(n) => Ok(n),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    Err(PianoError::Timeout(format!("{what} deadline elapsed")))
                }
                Err(e) => Err(io_transport(e)),
            }
        }
    }
}
