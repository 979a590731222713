//! The client half of a feed: codec negotiation, credit-paced batch
//! streaming, verdict delivery — and the resilience layer that survives
//! a faulty link.
//!
//! [`FeedHandle`] is the bare protocol client over any [`Transport`]: it
//! offers codecs, streams a recording as framed batches, pauses on
//! `Busy`, resumes on `Credit`, and waits for the verdict. One handle
//! drives one connection; when the transport dies, the handle is dead
//! too.
//!
//! [`ResilientFeed`] wraps a handle with a redial function and a
//! [`RetryPolicy`]: a lost transport triggers reconnect-with-backoff and
//! a [`Message::Resume`] handshake, after which streaming continues from
//! the first chunk the server never accepted (the
//! [`Message::ResumeAck`] cursor). Replay costs no extra memory — chunks
//! are re-cut deterministically from the source recording — and the
//! resumed sample stream is byte-identical to an unbroken run. An
//! admission-control [`Message::Retry`] (the server shedding load)
//! surfaces as [`PianoError::Overloaded`] and is retried after the
//! longer of the server's hint and the jittered backoff.

use std::io;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use piano_core::error::PianoError;
use piano_core::piano::AuthDecision;
use piano_core::wire::{FrameReader, Message, WireCodec};

use crate::codec;
use crate::framing::{io_transport, read_frame, read_more, READ_BUF_BYTES};
use crate::transport::Transport;

/// The client half of one feed: codec negotiation, credit-paced batch
/// streaming, and verdict delivery over any [`Transport`].
#[derive(Debug)]
pub struct FeedHandle<T: Transport> {
    t: T,
    reader: FrameReader,
    buf: Vec<u8>,
    session: u64,
    codec: WireCodec,
    /// `None` on a resumed handle: the challenge was delivered on the
    /// original connection.
    challenge: Option<Message>,
    next_seq: u32,
    paused: bool,
    wire_audio_bytes: u64,
    raw_audio_bytes: u64,
    busy_seen: u64,
    credit_seen: u64,
}

impl<T: Transport> FeedHandle<T> {
    /// Performs the client handshake: offers `offered` (preference
    /// order), reads the server's [`Message::Accept`] and the Step II
    /// challenge.
    ///
    /// # Errors
    ///
    /// [`PianoError::Overloaded`] if the server shed the connection with
    /// [`Message::Retry`]; [`PianoError::Transport`] if the link died;
    /// [`PianoError::Wire`] if the server answered out of protocol.
    pub fn connect(mut t: T, offered: &[WireCodec]) -> Result<Self, PianoError> {
        let hello = Message::Hello {
            codecs: offered.iter().map(|c| c.id()).collect(),
        };
        t.write_all(&hello.encode_framed()).map_err(io_transport)?;
        let mut reader = FrameReader::new();
        let mut buf = vec![0u8; READ_BUF_BYTES];
        let accept = read_frame(&mut t, &mut reader, &mut buf)?;
        let Message::Accept { session, codec } = accept else {
            if let Message::Retry { retry_after_ms } = accept {
                return Err(PianoError::Overloaded { retry_after_ms });
            }
            return Err(PianoError::Wire(format!("expected Accept, got {accept:?}")));
        };
        let codec = WireCodec::from_id(codec)
            .ok_or_else(|| PianoError::Wire(format!("server accepted unknown codec {codec}")))?;
        let challenge = read_frame(&mut t, &mut reader, &mut buf)?;
        match &challenge {
            Message::ReferenceSignals { session: s, .. } if *s == session => {}
            other => {
                return Err(PianoError::Wire(format!(
                    "expected the session {session:#x} challenge, got {other:?}"
                )))
            }
        }
        Ok(FeedHandle {
            t,
            reader,
            buf,
            session,
            codec,
            challenge: Some(challenge),
            next_seq: 0,
            paused: false,
            wire_audio_bytes: 0,
            raw_audio_bytes: 0,
            busy_seen: 0,
            credit_seen: 0,
        })
    }

    /// Re-attaches to a suspended wire session on a fresh transport:
    /// writes [`Message::Resume`] with the client's replay cursor and
    /// reads the server's [`Message::ResumeAck`]. Returns the handle
    /// (its cursor rewound to `ack_seq`), the ack'd sequence number, and
    /// whether the server already holds the whole stream (`ended` — skip
    /// re-sending audio and [`finish`](Self::finish), go straight to
    /// [`await_decision`](Self::await_decision)).
    ///
    /// # Errors
    ///
    /// [`PianoError::Transport`] if the link died (including the server
    /// rejecting an unknown/expired session by closing the connection);
    /// [`PianoError::Wire`] for an out-of-protocol answer.
    pub fn resume(
        mut t: T,
        session: u64,
        next_seq: u32,
        codec: WireCodec,
    ) -> Result<(Self, u32, bool), PianoError> {
        t.write_all(&Message::Resume { session, next_seq }.encode_framed())
            .map_err(io_transport)?;
        let mut reader = FrameReader::new();
        let mut buf = vec![0u8; READ_BUF_BYTES];
        let ack = read_frame(&mut t, &mut reader, &mut buf)?;
        let Message::ResumeAck {
            session: s,
            ack_seq,
            ended,
        } = ack
        else {
            return Err(PianoError::Wire(format!("expected ResumeAck, got {ack:?}")));
        };
        if s != session {
            return Err(PianoError::Wire(format!(
                "ResumeAck for session {s:#x}, expected {session:#x}"
            )));
        }
        Ok((
            FeedHandle {
                t,
                reader,
                buf,
                session,
                codec,
                challenge: None,
                next_seq: ack_seq,
                paused: false,
                wire_audio_bytes: 0,
                raw_audio_bytes: 0,
                busy_seen: 0,
                credit_seen: 0,
            },
            ack_seq,
            ended,
        ))
    }

    /// The wire session id the server assigned.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The negotiated audio codec.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// The next chunk sequence number this handle will send — after a
    /// [`resume`](Self::resume), the server's replay cursor.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// The Step II challenge ([`Message::ReferenceSignals`]) — the thin
    /// device reconstructs its playback signal `S_V` from this.
    ///
    /// # Panics
    ///
    /// On a [`resume`](Self::resume)d handle: the challenge was delivered
    /// on the original connection and is not re-sent.
    pub fn challenge(&self) -> &Message {
        self.challenge
            .as_ref()
            .expect("resumed handles carry no challenge")
    }

    /// Unwraps the underlying transport, abandoning the handle's pacing
    /// state. Misbehaving-sender tests use this to write raw bytes the
    /// handle would never produce.
    pub fn into_transport(self) -> T {
        self.t
    }

    /// Direct access to the underlying transport — the fault-scripting
    /// hook chaos tests use to place disconnect cuts relative to the
    /// traffic a [`crate::fault::FaultyTransport`] has already observed.
    /// Writing or reading through it corrupts the handle's framing.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.t
    }

    /// Audio bytes this handle has put on the wire (framed, post-codec).
    pub fn wire_audio_bytes(&self) -> u64 {
        self.wire_audio_bytes
    }

    /// What the same audio would have cost raw (framed `f64` batches).
    pub fn raw_audio_bytes(&self) -> u64 {
        self.raw_audio_bytes
    }

    /// `Busy` replies received so far.
    pub fn busy_seen(&self) -> u64 {
        self.busy_seen
    }

    /// `Credit` replies received so far.
    pub fn credit_seen(&self) -> u64 {
        self.credit_seen
    }

    /// Consumes pending flow-control replies. With `block_for_credit`,
    /// blocks until the outstanding `Busy` is answered — the pacing that
    /// keeps a cooperating sender under the receiver's hard limit.
    fn drain_replies(&mut self, block_for_credit: bool) -> Result<(), PianoError> {
        loop {
            while let Some(msg) = self.reader.next_frame()? {
                match msg {
                    Message::Busy { .. } => {
                        self.busy_seen += 1;
                        self.paused = true;
                    }
                    Message::Credit { .. } => {
                        self.credit_seen += 1;
                        self.paused = false;
                    }
                    other => {
                        return Err(PianoError::Wire(format!(
                            "unexpected reply while streaming: {other:?}"
                        )))
                    }
                }
            }
            if block_for_credit && self.paused {
                match self.t.read_some(&mut self.buf) {
                    Ok(0) => {
                        return Err(PianoError::Transport(
                            "server closed while the feed awaited credit".into(),
                        ))
                    }
                    Ok(n) => {
                        let chunk = &self.buf[..n];
                        self.reader.push(chunk);
                    }
                    Err(e) => return Err(io_transport(e)),
                }
                continue;
            }
            match self.t.try_read(&mut self.buf) {
                Ok(0) => return Ok(()), // EOF: surfaced by the next blocking read
                Ok(n) => {
                    let chunk = &self.buf[..n];
                    self.reader.push(chunk);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(io_transport(e)),
            }
        }
    }

    /// Sends one batch of consecutive chunks under the negotiated codec,
    /// first honoring any outstanding `Busy` (blocking until `Credit`).
    pub fn send_batch(&mut self, chunks: &[Vec<f64>]) -> Result<(), PianoError> {
        self.drain_replies(false)?;
        if self.paused {
            self.drain_replies(true)?;
        }
        let msg = codec::encode_audio_batch(self.codec, self.session, self.next_seq, chunks);
        self.next_seq += chunks.len() as u32;
        let framed = msg.encode_framed();
        self.wire_audio_bytes += framed.len() as u64;
        self.raw_audio_bytes += codec::raw_framed_audio_bytes(&msg);
        self.t.write_all(&framed).map_err(io_transport)
    }

    /// Streams a whole recording: `chunk_len`-sample chunks,
    /// `chunks_per_batch` chunks per frame, credit-paced.
    pub fn send_recording(
        &mut self,
        recording: &[f64],
        chunk_len: usize,
        chunks_per_batch: usize,
    ) -> Result<(), PianoError> {
        let chunks: Vec<Vec<f64>> = recording
            .chunks(chunk_len.max(1))
            .map(<[f64]>::to_vec)
            .collect();
        for batch in chunks.chunks(chunks_per_batch.max(1)) {
            self.send_batch(batch)?;
        }
        Ok(())
    }

    /// Signals end-of-recording for this feed.
    pub fn finish(&mut self) -> Result<(), PianoError> {
        self.t
            .write_all(
                &Message::StreamEnd {
                    session: self.session,
                }
                .encode_framed(),
            )
            .map_err(io_transport)
    }

    /// Blocks until the server delivers this session's verdict (late
    /// flow-control replies in between are absorbed).
    ///
    /// Unbounded — a test-only convenience. Production clients should
    /// call [`await_decision_timeout`](Self::await_decision_timeout).
    pub fn await_decision(&mut self) -> Result<AuthDecision, PianoError> {
        self.await_decision_deadline(None)
    }

    /// [`await_decision`](Self::await_decision) bounded by `timeout`.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when no verdict arrived within `timeout`.
    pub fn await_decision_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<AuthDecision, PianoError> {
        self.await_decision_deadline(Some(Instant::now() + timeout))
    }

    fn await_decision_deadline(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<AuthDecision, PianoError> {
        loop {
            let msg = match self.reader.next_frame()? {
                Some(m) => m,
                None => match read_more(&mut self.t, &mut self.buf, deadline, "decision wait") {
                    Ok(0) => {
                        return Err(PianoError::Transport(
                            "server closed before delivering a decision".into(),
                        ))
                    }
                    Ok(n) => {
                        let (buf, reader) = (&self.buf[..n], &mut self.reader);
                        reader.push(buf);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            match msg {
                Message::Decision { session, decision } if session == self.session => {
                    return Ok(decision)
                }
                Message::Busy { .. } => self.busy_seen += 1,
                Message::Credit { .. } => self.credit_seen += 1,
                other => {
                    return Err(PianoError::Wire(format!(
                        "expected Decision, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Blocks until the server opens a re-challenge round for this
    /// standing feed and returns the [`Message::Recheck`] (round number
    /// plus the round's fresh reference signals — feed it to
    /// `fixtures::recheck_recording` in simulation hosts). Late
    /// flow-control replies in between are absorbed.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when no re-challenge arrived within
    /// `timeout`; [`PianoError::Transport`] when the server closed the
    /// connection instead (how a standing feed learns the server ended
    /// standing service).
    pub fn await_recheck(&mut self, timeout: Duration) -> Result<Message, PianoError> {
        let deadline = Some(Instant::now() + timeout);
        loop {
            let msg = match self.reader.next_frame()? {
                Some(m) => m,
                None => match read_more(&mut self.t, &mut self.buf, deadline, "recheck wait") {
                    Ok(0) => {
                        return Err(PianoError::Transport(
                            "server closed the standing connection".into(),
                        ))
                    }
                    Ok(n) => {
                        let (buf, reader) = (&self.buf, &mut self.reader);
                        if let Some(bytes) = buf.get(..n) {
                            reader.push(bytes);
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            match msg {
                Message::Recheck {
                    session,
                    round,
                    sa,
                    sv,
                } => {
                    if session != self.session {
                        return Err(PianoError::Wire(format!(
                            "recheck for session {session:#x}, expected {:#x}",
                            self.session
                        )));
                    }
                    return Ok(Message::Recheck {
                        session,
                        round,
                        sa,
                        sv,
                    });
                }
                Message::Busy { .. } => self.busy_seen += 1,
                Message::Credit { .. } => self.credit_seen += 1,
                other => return Err(PianoError::Wire(format!("expected Recheck, got {other:?}"))),
            }
        }
    }

    /// Streams one re-challenge round's recording back as
    /// [`Message::RecheckAudio`] frames — `chunk_len`-sample chunks,
    /// closed by an empty `done` frame. Re-check audio rides the raw
    /// `f64` framing regardless of the negotiated stream codec.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` exceeds the per-frame wire cap
    /// ([`piano_core::wire::MAX_AUDIO_CHUNK_SAMPLES`]).
    pub fn answer_recheck(
        &mut self,
        round: u32,
        recording: &[f64],
        chunk_len: usize,
    ) -> Result<(), PianoError> {
        let mut seq = 0u32;
        for chunk in recording.chunks(chunk_len.max(1)) {
            let msg = Message::RecheckAudio {
                session: self.session,
                round,
                seq,
                done: false,
                samples: chunk.to_vec(),
            };
            self.t
                .write_all(&msg.encode_framed())
                .map_err(io_transport)?;
            seq = seq.wrapping_add(1);
        }
        let fin = Message::RecheckAudio {
            session: self.session,
            round,
            seq,
            done: true,
            samples: Vec::new(),
        };
        self.t.write_all(&fin.encode_framed()).map_err(io_transport)
    }

    /// Blocks until round `round`'s [`Message::RecheckVerdict`] arrives
    /// and returns its decision.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when no verdict arrived within `timeout`;
    /// [`PianoError::Wire`] for a verdict addressing a different round.
    pub fn await_recheck_verdict(
        &mut self,
        round: u32,
        timeout: Duration,
    ) -> Result<AuthDecision, PianoError> {
        let deadline = Some(Instant::now() + timeout);
        loop {
            let msg = match self.reader.next_frame()? {
                Some(m) => m,
                None => match read_more(&mut self.t, &mut self.buf, deadline, "recheck verdict") {
                    Ok(0) => {
                        return Err(PianoError::Transport(
                            "server closed before delivering the recheck verdict".into(),
                        ))
                    }
                    Ok(n) => {
                        let (buf, reader) = (&self.buf, &mut self.reader);
                        if let Some(bytes) = buf.get(..n) {
                            reader.push(bytes);
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            match msg {
                Message::RecheckVerdict {
                    session,
                    round: r,
                    decision,
                } if session == self.session => {
                    if r != round {
                        return Err(PianoError::Wire(format!(
                            "recheck verdict for round {r}, expected {round}"
                        )));
                    }
                    return Ok(decision);
                }
                Message::Busy { .. } => self.busy_seen += 1,
                Message::Credit { .. } => self.credit_seen += 1,
                other => {
                    return Err(PianoError::Wire(format!(
                        "expected RecheckVerdict, got {other:?}"
                    )))
                }
            }
        }
    }
}

/// Reconnect pacing for a [`ResilientFeed`]: capped exponential backoff
/// with seeded jitter, so a whole fleet's retry schedule is reproducible
/// from the seeds.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Most reconnect attempts per failed operation before giving up.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on the per-attempt delay.
    pub max_delay: Duration,
    /// Seed for the jitter stream (each delay is scaled by a factor in
    /// `[0.5, 1.0)` drawn from a ChaCha stream over this seed).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (zero-based).
    fn backoff(&self, rng: &mut ChaCha8Rng, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        exp.mul_f64(0.5 + rng.gen::<f64>() * 0.5)
    }
}

/// Observability counters of one [`ResilientFeed`]'s fight with its link.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct FeedStats {
    /// Reconnect attempts that did not immediately succeed (dial or
    /// resume handshake failed and was retried).
    pub retries: u64,
    /// Successful [`Message::Resume`] handshakes.
    pub resumes: u64,
    /// [`Message::Retry`] shed responses absorbed during connect.
    pub sheds_seen: u64,
    /// Total time spent sleeping in backoff.
    pub backoff_total: Duration,
}

/// A [`FeedHandle`] that survives its transport: redials on loss,
/// resumes the wire session, and replays from the server's cursor.
///
/// The dial function is called for every (re)connection attempt.
/// Suitable for any transport whose endpoints can be re-dialed — an
/// in-memory hub connector or a TCP address.
#[derive(Debug)]
pub struct ResilientFeed<T: Transport, D: FnMut() -> io::Result<T>> {
    dial: D,
    policy: RetryPolicy,
    rng: ChaCha8Rng,
    handle: FeedHandle<T>,
    stats: FeedStats,
}

impl<T: Transport, D: FnMut() -> io::Result<T>> ResilientFeed<T, D> {
    /// Dials and performs the [`FeedHandle::connect`] handshake,
    /// absorbing shed responses ([`PianoError::Overloaded`] — wait out
    /// the longer of the server's hint and the jittered exponential
    /// backoff, clamped to [`RetryPolicy::max_delay`], then re-dial) and
    /// transport failures (jittered exponential backoff) up to
    /// [`RetryPolicy::max_attempts`]. Every failed attempt sleeps exactly
    /// once, and every slept interval is visible in
    /// [`FeedStats::backoff_total`].
    pub fn connect(
        mut dial: D,
        offered: &[WireCodec],
        policy: RetryPolicy,
    ) -> Result<Self, PianoError> {
        let mut rng = ChaCha8Rng::seed_from_u64(policy.jitter_seed);
        let mut stats = FeedStats::default();
        let mut attempt = 0u32;
        loop {
            let fail = match dial().map_err(io_transport) {
                Ok(t) => match FeedHandle::connect(t, offered) {
                    Ok(handle) => {
                        return Ok(ResilientFeed {
                            dial,
                            policy,
                            rng,
                            handle,
                            stats,
                        })
                    }
                    Err(e) => e,
                },
                Err(e) => e,
            };
            // Exactly one sleep per failed attempt: the jittered
            // exponential backoff, which a shed response raises to the
            // server's hint (clamped to the policy ceiling, so a hostile
            // or misconfigured hint cannot stall the client past its own
            // worst-case delay). A repeatedly shed client thus backs off
            // like any other, instead of hammering a full server at the
            // hint's fixed pace.
            let shed_hint = match &fail {
                PianoError::Overloaded { retry_after_ms } => {
                    stats.sheds_seen += 1;
                    Some(Duration::from_millis(*retry_after_ms).min(policy.max_delay))
                }
                PianoError::Transport(_) => None,
                _ => return Err(fail),
            };
            if attempt >= policy.max_attempts {
                return Err(fail);
            }
            let backoff = policy.backoff(&mut rng, attempt);
            let delay = shed_hint.map_or(backoff, |hint| hint.max(backoff));
            stats.retries += 1;
            stats.backoff_total += delay;
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Wraps an already-connected handle with resilience. Fleet tests
    /// use this to keep the initial handshakes sequential (session
    /// randomness binds to feed order) while still surviving faults that
    /// strike once streaming goes concurrent.
    pub fn adopt(handle: FeedHandle<T>, dial: D, policy: RetryPolicy) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(policy.jitter_seed);
        ResilientFeed {
            dial,
            policy,
            rng,
            handle,
            stats: FeedStats::default(),
        }
    }

    /// The live protocol handle (counters, session id, codec). Panics
    /// never — a `ResilientFeed` always holds a handle.
    pub fn handle(&self) -> &FeedHandle<T> {
        &self.handle
    }

    /// Mutable access to the live protocol handle. Standing-session
    /// clients answer re-challenge rounds on it after the verdict; the
    /// redial machinery does not cover those rounds (a cut there is a
    /// server-side round drop, not a resumable stream).
    pub fn handle_mut(&mut self) -> &mut FeedHandle<T> {
        &mut self.handle
    }

    /// This feed's resilience counters so far.
    pub fn stats(&self) -> FeedStats {
        self.stats
    }

    /// Redials and resumes the wire session with backoff. Returns the
    /// `ended` flag from the [`Message::ResumeAck`].
    fn reconnect(&mut self, mut last: PianoError) -> Result<bool, PianoError> {
        let session = self.handle.session();
        let codec = self.handle.codec();
        for attempt in 0..self.policy.max_attempts {
            let delay = self.policy.backoff(&mut self.rng, attempt);
            self.stats.backoff_total += delay;
            std::thread::sleep(delay);
            let cursor = self.handle.next_seq();
            match (self.dial)().map_err(io_transport) {
                Ok(t) => match FeedHandle::resume(t, session, cursor, codec) {
                    Ok((handle, _ack_seq, ended)) => {
                        self.handle = handle;
                        self.stats.resumes += 1;
                        return Ok(ended);
                    }
                    Err(e) => last = e,
                },
                Err(e) => last = e,
            }
            self.stats.retries += 1;
        }
        Err(last)
    }

    /// Is this failure worth a reconnect? Protocol violations are not —
    /// the server state is gone or was never compatible.
    fn lost(e: &PianoError) -> bool {
        matches!(e, PianoError::Transport(_))
    }

    /// Streams a whole recording like [`FeedHandle::send_recording`],
    /// resuming through any number of survivable transport losses. The
    /// replay cursor is the handle's [`next_seq`](FeedHandle::next_seq):
    /// chunks are re-cut from `recording`, so replay allocates nothing
    /// beyond the batch in flight.
    pub fn send_recording(
        &mut self,
        recording: &[f64],
        chunk_len: usize,
        chunks_per_batch: usize,
    ) -> Result<(), PianoError> {
        let chunks: Vec<Vec<f64>> = recording
            .chunks(chunk_len.max(1))
            .map(<[f64]>::to_vec)
            .collect();
        let per_batch = chunks_per_batch.max(1);
        loop {
            let cursor = self.handle.next_seq() as usize;
            if cursor >= chunks.len() {
                return Ok(());
            }
            let batch = &chunks[cursor..(cursor + per_batch).min(chunks.len())];
            if let Err(e) = self.handle.send_batch(batch) {
                if !Self::lost(&e) {
                    return Err(e);
                }
                // `ended` cannot be set before StreamEnd is sent; the
                // resumed cursor simply rewinds the loop.
                self.reconnect(e)?;
            }
        }
    }

    /// Ends the stream and waits (bounded) for the verdict, resuming
    /// through transport losses: a lost `StreamEnd` is re-sent, a lost
    /// `Decision` is re-read from the resumed connection.
    pub fn finish_and_await(&mut self, timeout: Duration) -> Result<AuthDecision, PianoError> {
        let deadline = Instant::now() + timeout;
        let mut ended = false;
        loop {
            if !ended {
                match self.handle.finish() {
                    Ok(()) => {}
                    Err(e) if Self::lost(&e) => {
                        ended = self.reconnect(e)?;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| {
                    PianoError::Timeout("verdict did not arrive within the deadline".into())
                })?;
            match self.handle.await_decision_timeout(left) {
                Ok(decision) => return Ok(decision),
                Err(e) if Self::lost(&e) => {
                    // The server holds the whole stream; the resume ack
                    // must say so.
                    ended = self.reconnect(e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}
