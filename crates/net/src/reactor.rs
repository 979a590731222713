//! The readiness-reactor ingest server — the gateway: every connection
//! a state machine, every deadline a timer-wheel entry, one thread for
//! the whole fleet.
//!
//! [`ReactorServer`] is the gateway half of the fleet-ingestion picture
//! (see the [crate docs](crate)): it admits connections, runs one
//! [`FrameReader`] + [`IngestFeed`] + voucher [`AuthSession`] per
//! connection, drains decoded audio into the voucher scan, routes each
//! feed's Step V report into one [`ShardedAuthService`], and writes
//! `Busy`/`Credit`/`Decision` replies back on the connection — all from
//! a poll-style event loop over nonblocking reads:
//!
//! ```text
//!            host threads                      reactor thread
//!            ────────────                      ──────────────
//!  register(t) ──▶ inbox ─┐              ┌─▶ admit: token + FrameReader
//!  scan_and_decide ───────┤   drain ─────┤       + handshake timer
//!  shutdown ──────────────┘              ├─▶ TimerWheel::advance
//!                                        │     (idle / stream / decision
//!  ReadySignal::notify ──▶ ReadySet ─────┤      / resume-window expiry)
//!   (event-driven transports)            └─▶ turns: try_read → frames →
//!  probe tick (~1 ms) ───────────────────▶     IngestFeed → voucher scan
//!   (transports without readiness)             → Busy/Credit/Decision
//! ```
//!
//! The reactor owns all connection state itself — a few hundred bytes
//! per connection plus the frame reader's buffer — shares one read
//! scratch buffer across the fleet, and sleeps on a single [`ReadySet`]
//! condition variable bounded by the earliest timer. The connection
//! ceiling is a question of per-connection *bytes*, not schedulable
//! *threads* (`net_ingest` in the bench suite reports it against the
//! arithmetic cost of a thread per connection).
//!
//! # Determinism
//!
//! Handshakes are processed in arrival order on one thread, so session
//! RNG draws bind to connection order; framing, codecs, and the scan
//! layers underneath are chunking-invariant. N feeds through the reactor
//! decide byte-identically to direct [`AuthService`] ingestion of the
//! same quantized recordings.
//!
//! # Fault isolation
//!
//! A connection that violates the protocol — loses framing (the
//! [`FrameReader`] poisons, with [`FrameReader::poison_cause`] saying
//! why), skips sequence numbers, or ignores `Busy` past the
//! [`IngestFeed::hard_limit`] — is **dropped alone**: the reactor logs
//! the cause, counts it under its [`DropCause`] in
//! [`ServiceStats::drops`], closes that connection's session, and every
//! other feed proceeds untouched.
//!
//! # Deadlines
//!
//! The handshake must complete within
//! [`ServerConfig::handshake_timeout`], a mid-stream silence longer than
//! [`ServerConfig::idle_timeout`] (counted only while the backlog is
//! empty) times the feed out, a whole stream may not outlive
//! [`ServerConfig::stream_timeout`] (anchored at the handshake, spanning
//! suspensions), and a reported connection waiting on the hub verdict
//! gives up after [`ServerConfig::decision_timeout`]. Deadlines are
//! wheel entries, so they never fire early and never pin a thread; a
//! timed-out connection is dropped alone under [`DropCause::Timeout`],
//! and one stalled feed can never wedge
//! [`ReactorServer::wait_for_reports`].
//!
//! # Reconnect and resume
//!
//! With [`ServerConfig::resume_window`] non-zero, a feed whose transport
//! dies mid-stream is *suspended* instead of dropped: its
//! [`IngestFeed`] + voucher state parks in a registry keyed by the wire
//! session id ([`ServiceStats::connections_suspended`]). A client that
//! reconnects within the window and opens with [`Message::Resume`] is
//! answered by [`Message::ResumeAck`] carrying the first sequence number
//! the server never accepted, and the stream continues exactly where it
//! broke — the delivered sample stream is byte-identical to an unbroken
//! run. A `Resume` probe that arrives *before* the loss is discovered
//! parks as a connection state (`Phase::PendingResume`) and is adopted
//! the moment the loss lands, with no polling. A reported feed whose
//! transport dies before its verdict is suspended the same way, and its
//! resume is answered with the verdict. Suspensions that outlive the
//! window are dropped under [`DropCause::ResumeExpired`].
//!
//! # Overload shedding
//!
//! With [`ServerConfig::max_active_feeds`] set, a [`Message::Hello`]
//! arriving while that many feeds are already streaming is answered with
//! [`Message::Retry`] (carrying [`ServerConfig::retry_after_ms`]) and
//! the connection closes before any session state is allocated. Shed
//! connections count in [`ServiceStats::connections_shed`], not as
//! drops.
//!
//! # Epochs
//!
//! A scan group's signature set is fixed once hub audio flows, so the
//! gateway serves authentication in numbered *epochs*. A session belongs
//! to the epoch that is open when it opens; first authentications
//! (`Hello`) and re-challenge rounds (below) join the same epoch. The
//! host waits until the epoch's feeds reported
//! ([`ReactorServer::wait_for_reports`]) and posts the hub microphone's
//! recording ([`ReactorServer::scan_and_decide`]). The reactor scans it
//! once for every session of the epoch, writes each waiting verdict, and
//! opens the next epoch, so one long-lived server serves epoch after
//! epoch. A feed that reports after its epoch's scan is answered at once:
//! the scan already located its signals. A session closes once its
//! verdict is written or its resume window lapses, so the service does
//! not grow across epochs.
//!
//! # Standing sessions and wire re-challenge
//!
//! With [`ServerConfig::standing`] set, a granted feed does **not**
//! close after its `Decision` frame: the connection parks in a standing
//! phase, and the host re-verifies the whole fleet over the live
//! connections — no reconnects — in batched *re-challenge rounds*
//! driven by [`ReactorServer::begin_recheck_round`]. Each round replays
//! the PIANO protocol end to end on a **fresh** per-round service
//! session: the server writes [`Message::Recheck`] (fresh Step II
//! reference signals under the feed's original wire session id), the
//! client plays and records, streams the recording back as
//! [`Message::RecheckAudio`] frames, the gateway voucher re-ranges and
//! routes a fresh Step V report, the host scans one hub recording for
//! the whole round (a round is an epoch: one coarse pass for every
//! standing feed), and the connection receives
//! [`Message::RecheckVerdict`]. Rounds repeat until
//! [`ReactorServer::end_standing`]. Risk-adaptive round *timing* is the
//! host's job — drive it from [`piano_core::continuum::Continuum`]'s
//! timer wheel.
//!
//! [`AuthService`]: piano_core::stream::AuthService

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand_chacha::ChaCha8Rng;

use piano_core::error::PianoError;
use piano_core::piano::{AuthDecision, DenialReason};
use piano_core::pool::FramePool;
use piano_core::stream::{AuthSession, DropCause, ServiceStats, SessionId, ShardedAuthService};
use piano_core::sync::OrderedMutex;
use piano_core::wire::{FrameReader, IngestFeed, Message, WireCodec};

use crate::codec;
use crate::framing::{io_transport, READ_BUF_BYTES};
use crate::metrics::{audio_samples, Counters, FeedState};
use crate::transport::{Listener, ReadySet, Transport};
use crate::wheel::{TimerKey, TimerWheel};

/// Timer-wheel resolution. Deadlines round up to this, so a timeout can
/// fire up to one tick late, never early.
const WHEEL_TICK: Duration = Duration::from_millis(1);

/// Sleep bound while any probe-mode connection (a transport without
/// readiness notification, e.g. TCP) is attached: the reactor polls
/// those at this cadence instead of blocking indefinitely.
const PROBE_TICK: Duration = Duration::from_millis(1);

/// Most `try_read` calls one turn spends on one connection before
/// yielding, so one firehose feed cannot starve the rest of the fleet.
const READS_PER_TURN: usize = 8;

/// Tuning knobs of a [`ReactorServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-feed buffered-sample high-water mark ([`IngestFeed::new`]).
    pub high_water: usize,
    /// Samples drained from a feed into its voucher scan per loop turn —
    /// the server's simulated scan rate, which is what makes
    /// backpressure observable at all.
    pub drain_chunk: usize,
    /// Codecs this server accepts, in no particular order (the *client's*
    /// preference order wins among these).
    pub supported_codecs: Vec<WireCodec>,
    /// A connection must complete its opening exchange (`Hello` or
    /// `Resume`, through the challenge write) within this long.
    pub handshake_timeout: Duration,
    /// Longest mid-stream silence tolerated while the feed's backlog is
    /// empty; a feed quiet longer is dropped under [`DropCause::Timeout`].
    pub idle_timeout: Duration,
    /// Budget for a feed's whole stream, handshake to `StreamEnd`
    /// (spanning suspensions and resumes) — the slow-feed watchdog.
    pub stream_timeout: Duration,
    /// How long a reported connection waits for the hub scan's verdict
    /// before giving up.
    pub decision_timeout: Duration,
    /// How long a feed whose transport died may remain suspended awaiting
    /// a [`Message::Resume`]. `Duration::ZERO` (the default) disables
    /// resume: a lost transport drops the feed immediately.
    pub resume_window: Duration,
    /// Admission limit: a `Hello` arriving while this many feeds are
    /// actively streaming is shed with [`Message::Retry`].
    /// `usize::MAX` (the default) disables shedding.
    pub max_active_feeds: usize,
    /// The back-off hint written in the [`Message::Retry`] a shed
    /// connection receives.
    pub retry_after_ms: u64,
    /// Keep granted feeds connected as *standing* sessions after their
    /// verdict, serving wire re-challenge rounds
    /// ([`Message::Recheck`] → [`Message::RecheckAudio`] →
    /// [`Message::RecheckVerdict`]) until [`ReactorServer::end_standing`].
    /// Off by default: the classic one-epoch flow delivers the verdict
    /// and closes.
    pub standing: bool,
    /// Budget for one re-challenge round's client half: from the
    /// [`Message::Recheck`] write until the round's final
    /// [`Message::RecheckAudio`] arrives.
    pub recheck_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            high_water: 6_000,
            drain_chunk: 2_048,
            supported_codecs: vec![WireCodec::Raw, WireCodec::I16Delta],
            handshake_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            stream_timeout: Duration::from_secs(300),
            decision_timeout: Duration::from_secs(300),
            resume_window: Duration::ZERO,
            max_active_feeds: usize::MAX,
            retry_after_ms: 50,
            standing: false,
            recheck_timeout: Duration::from_secs(30),
        }
    }
}

/// Lock ranks of the [`Shared`] mutexes: acquisition must ascend. `rng`
/// sits *below* the [`ShardedAuthService`] lock (rank 20) because a
/// handshake holds the RNG while it opens a service session.
mod rank {
    pub(super) const PROGRESS: u32 = 10;
    pub(super) const RNG: u32 = 12;
    pub(super) const INBOX: u32 = 40;
    pub(super) const CORE: u32 = 60;
}

/// One scan epoch: the sessions opened while it is open, and how far the
/// wait for their reports has got.
#[derive(Debug, Default)]
struct Epoch {
    /// 1, 2, 3, … in opening order.
    number: u64,
    /// Step V reports routed into the service.
    reports: usize,
    /// Feeds that failed out before reporting — counted so the report
    /// wait cannot hang on reports that will never arrive.
    drops: usize,
    /// Service sessions in opening order (the hub-geometry order).
    ids: Vec<SessionId>,
    /// Sessions the epoch's scan decided (set by the scan).
    decided: usize,
}

/// Cross-thread progress state guarded by one mutex (+ condvar).
#[derive(Debug, Default)]
struct Progress {
    /// The open epoch: sessions opened now join it.
    epoch: Epoch,
    /// The last scanned epoch (number 0 before the first scan).
    scanned: Epoch,
    /// Every first-authentication session id, in opening order.
    first_ids: Vec<SessionId>,
    /// Feeds attached and streaming right now — the admission-control
    /// population [`ServerConfig::max_active_feeds`] bounds.
    active: usize,
    /// Verdicts actually delivered to their connections, in delivery
    /// order.
    outcomes: Vec<(SessionId, AuthDecision)>,
    /// Granted feeds parked in [`Phase::Standing`], awaiting re-challenge
    /// rounds.
    standing: usize,
    /// The re-check round the host last opened (0 = none yet) — the
    /// round number the wire carries.
    recheck_round: u64,
}

/// Host-to-reactor mailbox: drained at the top of every loop turn.
#[derive(Default)]
struct Inbox {
    /// Transports handed over by [`ReactorServer::register`].
    injected: Vec<Box<dyn Transport>>,
    /// A pending [`ReactorServer::scan_and_decide`] request.
    scan: Option<ScanRequest>,
    /// A re-challenge round to open on every standing connection
    /// ([`ReactorServer::begin_recheck_round`]).
    recheck: Option<u64>,
    /// [`ReactorServer::end_standing`] was called.
    end_standing: bool,
    /// [`ReactorServer::shutdown`] was called.
    shutdown: bool,
}

/// One queued hub scan. The hub waveform is shared, not copied: every
/// scan round (and every caller holding the same recording) bumps one
/// refcount instead of cloning megabytes of samples.
struct ScanRequest {
    hub: Arc<[f64]>,
    tick: usize,
}

/// What a suspended wire session is waiting to resume *into*.
enum Parked {
    /// Mid-stream: the feed continues from `feed.next_seq()`.
    Streaming(Box<FeedState>),
    /// Reported: a resume is answered with the verdict — the one already
    /// written (`Some`, its session closed), or the epoch scan's.
    Decided {
        id: SessionId,
        verdict: Option<AuthDecision>,
    },
}

/// One entry in the resume registry. `gen` pairs the entry with its
/// expiry timer (lazy cancellation — see [`TimerWheel`]).
struct Suspension {
    state: Parked,
    gen: u64,
}

/// One standing connection's in-flight re-challenge round.
struct RecheckState {
    /// The fresh per-round service session.
    id: SessionId,
    /// The feed's *original* wire session — what every re-challenge
    /// frame carries.
    wire_session: u64,
    /// The round being answered.
    round: u64,
    /// The gateway-side voucher re-ranging on the device's behalf.
    voucher: AuthSession,
    /// Next expected [`Message::RecheckAudio`] sequence number.
    next_seq: u32,
}

/// Where one connection is in the protocol.
enum Phase {
    /// Waiting for the opening `Hello` or `Resume` frame.
    Handshake,
    /// Attached and streaming audio.
    Streaming(Box<FeedState>),
    /// Reported; waiting for the epoch scan's verdict. A close suspends
    /// the feed (or drops it without a resume window).
    AwaitDecision { id: SessionId, wire_session: u64 },
    /// Granted and parked for continuous re-verification
    /// ([`ServerConfig::standing`]): the connection stays open, idle
    /// between re-challenge rounds. A close leaves the standing
    /// population; a silently dead transport is discovered at its next
    /// round's `Recheck` write.
    Standing { wire_session: u64 },
    /// A re-challenge round is in flight: [`Message::Recheck`] was
    /// written, the round's [`Message::RecheckAudio`] stream is being
    /// ingested under a [`ServerConfig::recheck_timeout`] wheel entry.
    Rechecking(Box<RecheckState>),
    /// The round's report is routed; waiting for the epoch scan under a
    /// decision-timeout wheel entry.
    AwaitRecheckVerdict {
        id: SessionId,
        wire_session: u64,
        round: u64,
    },
    /// A `Resume` probe that arrived before its feed's loss was
    /// discovered: parked until the suspension lands (adopted directly
    /// by the losing connection's teardown) or the handshake deadline
    /// fires — the event form of a registry wait, with no polling.
    PendingResume {
        wire_session: u64,
        client_next_seq: u32,
    },
}

/// One connection owned by the reactor.
struct Conn {
    t: Box<dyn Transport>,
    reader: FrameReader,
    /// Generation of this connection's current wheel entry; a firing
    /// with a stale generation is ignored.
    armed_gen: u64,
    /// The phase deadline the wheel entry stands for. Data arrival
    /// pushes it later without touching the wheel: the old entry re-arms
    /// itself when it fires and finds `now < next_deadline`.
    next_deadline: Instant,
    /// The transport reported end-of-stream (or a read error); the
    /// backlog may still be draining.
    eof: bool,
    phase: Phase,
}

/// Reactor-thread-private state: connections, timers, the suspension
/// registry, and the shared read scratch buffer. Owned (taken out of
/// [`Shared::core`]) by whichever thread enters [`ReactorServer::run`].
struct Core {
    /// Token-indexed connection slots; `None` = free or mid-turn.
    conns: Vec<Option<Conn>>,
    /// Free tokens for reuse.
    free: Vec<usize>,
    /// Resume registry: wire session id → parked feed, while
    /// [`ServerConfig::resume_window`] lasts.
    suspended: BTreeMap<u64, Suspension>,
    wheel: TimerWheel,
    /// One read buffer shared by every connection — the per-connection
    /// memory a thread-per-connection model would pay per thread.
    scratch: Vec<u8>,
    /// Tokens of probe-mode connections (no readiness notification).
    probe: BTreeSet<usize>,
    /// Tokens with work queued for the next turn (backlog to drain,
    /// readiness observed, freshly admitted).
    runnable: BTreeSet<usize>,
    /// Standing service has ended: standing connections close instead of
    /// re-parking.
    standing_over: bool,
    /// Global generation counter for timer entries and suspensions.
    gen_counter: u64,
}

impl Core {
    fn new() -> Self {
        Core {
            conns: Vec::new(),
            free: Vec::new(),
            suspended: BTreeMap::new(),
            wheel: TimerWheel::new(WHEEL_TICK),
            scratch: vec![0u8; READ_BUF_BYTES],
            probe: BTreeSet::new(),
            runnable: BTreeSet::new(),
            standing_over: false,
            gen_counter: 0,
        }
    }
}

/// State shared between the reactor thread and host threads.
struct Shared {
    /// The service every session opens in.
    service: ShardedAuthService,
    rng: OrderedMutex<ChaCha8Rng>,
    cfg: ServerConfig,
    counters: Counters,
    progress: OrderedMutex<Progress>,
    progress_cv: Condvar,
    /// The readiness queue the reactor sleeps on.
    ready: Arc<ReadySet>,
    inbox: OrderedMutex<Inbox>,
    /// The reactor-private state, parked here until [`ReactorServer::run`]
    /// claims it (exactly once).
    core: OrderedMutex<Option<Core>>,
    /// Largest per-connection resident footprint observed, in bytes —
    /// what the `net_ingest` bench divides the memory budget by.
    conn_bytes_peak: AtomicU64,
    /// Server-wide slab pool audio frames decode into: every
    /// connection's [`FrameReader`] and [`IngestFeed`] draw from (and
    /// recycle to) this one pool, so steady-state ingestion reuses a
    /// bounded working set instead of allocating per frame.
    pool: FramePool,
}

/// The readiness-reactor ingest server over one [`ShardedAuthService`].
/// Cheap to clone (an `Arc` handle): clone one into the thread that
/// calls [`run`](Self::run), keep another for registration and the
/// scan/wait calls.
#[derive(Clone)]
pub struct ReactorServer {
    shared: Arc<Shared>,
}

impl ReactorServer {
    /// A reactor over `service`, drawing session randomness from `rng`
    /// (handshakes draw in arrival order on the single reactor thread,
    /// so a seeded rng makes a whole fleet run reproducible).
    pub fn new(service: ShardedAuthService, rng: ChaCha8Rng, cfg: ServerConfig) -> Self {
        ReactorServer {
            shared: Arc::new(Shared {
                service,
                rng: OrderedMutex::new(rank::RNG, "reactor.rng", rng),
                cfg,
                counters: Counters::default(),
                progress: OrderedMutex::new(
                    rank::PROGRESS,
                    "reactor.progress",
                    Progress {
                        epoch: Epoch {
                            number: 1,
                            ..Epoch::default()
                        },
                        ..Progress::default()
                    },
                ),
                progress_cv: Condvar::new(),
                ready: Arc::new(ReadySet::new()),
                inbox: OrderedMutex::new(rank::INBOX, "reactor.inbox", Inbox::default()),
                core: OrderedMutex::new(rank::CORE, "reactor.core", Some(Core::new())),
                conn_bytes_peak: AtomicU64::new(0),
                pool: FramePool::new(),
            }),
        }
    }

    /// The underlying service (locked per call — safe from any thread).
    pub fn service(&self) -> &ShardedAuthService {
        &self.shared.service
    }

    /// Every first-authentication session id opened so far, in opening
    /// order, across all epochs.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.shared.progress.lock().first_ids.clone()
    }

    /// The open epoch's session ids (first authentications and
    /// re-challenge rounds alike) in opening order — the hub-geometry
    /// order. Read it before the scan, which opens the next epoch.
    pub fn epoch_session_ids(&self) -> Vec<SessionId> {
        self.shared.progress.lock().epoch.ids.clone()
    }

    /// Verdicts delivered to their connections so far, in delivery
    /// order.
    pub fn outcomes(&self) -> Vec<(SessionId, AuthDecision)> {
        self.shared.progress.lock().outcomes.clone()
    }

    /// Hands a connection to the reactor. Returns immediately; the
    /// reactor thread admits it on its next loop turn.
    pub fn register<T: Transport + 'static>(&self, transport: T) {
        self.shared.inbox.lock().injected.push(Box::new(transport));
        self.shared.ready.kick();
    }

    /// Accepts `n` connections from `listener`, registering each with
    /// the reactor. There are no per-connection threads to join:
    /// collect verdicts from
    /// [`outcomes`](Self::outcomes) after the scan.
    pub fn accept_clients<L: Listener>(&self, listener: &mut L, n: usize) {
        for _ in 0..n {
            match listener.accept_conn() {
                Ok(conn) => self.register(conn),
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
    }

    /// Spawns a thread accepting `n` connections into the reactor.
    pub fn spawn_acceptor<L: Listener + 'static>(
        &self,
        mut listener: L,
        n: usize,
    ) -> JoinHandle<()> {
        let server = self.clone();
        std::thread::spawn(move || server.accept_clients(&mut listener, n))
    }

    /// Spawns the reactor thread (see [`run`](Self::run)).
    pub fn start(&self) -> JoinHandle<()> {
        let server = self.clone();
        std::thread::spawn(move || server.run())
    }

    /// Asks the reactor thread to exit. Connections still attached are
    /// dropped silently (no drop accounting) when the loop unwinds.
    pub fn shutdown(&self) {
        self.shared.inbox.lock().shutdown = true;
        self.shared.ready.kick();
    }

    /// Largest per-connection resident footprint observed so far, in
    /// bytes: connection state + frame-reader buffer + peak backlog.
    /// A thread-per-connection model would add a thread stack and a
    /// private read buffer on top of the same state — the bench's cost
    /// model compares the two.
    pub fn peak_conn_bytes(&self) -> u64 {
        self.shared.conn_bytes_peak.load(Ordering::Relaxed)
    }

    /// A point-in-time [`ServiceStats`] snapshot across every connection
    /// served so far.
    pub fn stats(&self) -> ServiceStats {
        self.shared.counters.snapshot()
    }

    // -- host-side waits ---------------------------------------------------

    /// Blocks until `n` feeds of the open epoch have either routed their
    /// Step V report or been dropped, then returns how many reported.
    /// Suspended feeds count as neither until they resume or their
    /// window expires — the reactor's timer wheel owns that expiry, so
    /// this wait is a plain condvar wait with no polling tick.
    ///
    /// Unbounded — a test-only convenience. Production hosts should call
    /// [`wait_for_reports_timeout`](Self::wait_for_reports_timeout).
    pub fn wait_for_reports(&self, n: usize) -> usize {
        // With no deadline the wait cannot return Err.
        self.wait_reports(n, None).unwrap_or_default()
    }

    /// [`wait_for_reports`](Self::wait_for_reports) bounded by `timeout`.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when fewer than `n` feeds have reported or
    /// dropped within `timeout`.
    pub fn wait_for_reports_timeout(
        &self,
        n: usize,
        timeout: Duration,
    ) -> Result<usize, PianoError> {
        self.wait_reports(n, Some(Instant::now() + timeout))
    }

    fn wait_reports(&self, n: usize, deadline: Option<Instant>) -> Result<usize, PianoError> {
        let sh = &*self.shared;
        let mut progress = sh.progress.lock();
        loop {
            let concluded = progress.epoch.reports + progress.epoch.drops;
            if concluded >= n {
                return Ok(progress.epoch.reports);
            }
            let now = Instant::now();
            match deadline {
                Some(d) if now >= d => {
                    return Err(PianoError::Timeout(format!(
                        "{concluded} of {n} feeds concluded before the report deadline"
                    )));
                }
                Some(d) => {
                    let (guard, _) = progress.wait_timeout(&sh.progress_cv, d - now);
                    progress = guard;
                }
                None => {
                    progress = progress.wait(&sh.progress_cv);
                }
            }
        }
    }

    /// Posts the hub microphone's recording to the reactor, which scans
    /// the open epoch in `tick`-sample chunks, writes every waiting
    /// verdict, opens the next epoch, and reports back. Returns the
    /// number of the epoch's sessions that decided. Blocks until the
    /// reactor has run the scan — call [`start`](Self::start) first.
    pub fn scan_and_decide(&self, hub_audio: &[f64], tick: usize) -> usize {
        self.scan_and_decide_arc(hub_audio.into(), tick)
    }

    /// [`scan_and_decide`](Self::scan_and_decide) without the waveform
    /// copy: the reactor borrows the caller's shared recording. Hosts
    /// that scan the same hub recording across rounds (or hold it for
    /// their own bookkeeping) should prefer this.
    pub fn scan_and_decide_arc(&self, hub_audio: Arc<[f64]>, tick: usize) -> usize {
        let epoch = self.shared.progress.lock().epoch.number;
        self.shared.inbox.lock().scan = Some(ScanRequest {
            hub: hub_audio,
            tick,
        });
        self.shared.ready.kick();
        let sh = &*self.shared;
        let mut progress = sh.progress.lock();
        while progress.scanned.number < epoch {
            progress = progress.wait(&sh.progress_cv);
        }
        progress.scanned.decided
    }

    // -- continuous re-verification (host side) ----------------------------

    /// Blocks until at least `n` granted feeds are parked standing,
    /// returning the standing population. Only meaningful with
    /// [`ServerConfig::standing`] set.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when fewer than `n` feeds are standing
    /// within `timeout`.
    pub fn wait_for_standing(&self, n: usize, timeout: Duration) -> Result<usize, PianoError> {
        let deadline = Instant::now() + timeout;
        let sh = &*self.shared;
        let mut progress = sh.progress.lock();
        loop {
            if progress.standing >= n {
                return Ok(progress.standing);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PianoError::Timeout(format!(
                    "{} of {n} feeds standing before the deadline",
                    progress.standing
                )));
            }
            let (guard, _) = progress.wait_timeout(&sh.progress_cv, deadline - now);
            progress = guard;
        }
    }

    /// Opens the next re-challenge round on every standing connection
    /// and returns its number. The reactor writes each feed's
    /// [`Message::Recheck`] (fresh per-round session in the open epoch,
    /// fresh signals, original wire session) on its next loop iteration;
    /// follow with the epoch's report wait and scan.
    pub fn begin_recheck_round(&self) -> u64 {
        let round = {
            let mut progress = self.shared.progress.lock();
            progress.recheck_round += 1;
            progress.recheck_round
        };
        self.shared.inbox.lock().recheck = Some(round);
        self.shared.ready.kick();
        round
    }

    /// [`wait_for_reports_timeout`](Self::wait_for_reports_timeout): a
    /// round's reports are its epoch's.
    ///
    /// # Errors
    ///
    /// As [`wait_for_reports_timeout`](Self::wait_for_reports_timeout).
    pub fn wait_for_recheck_reports(
        &self,
        n: usize,
        timeout: Duration,
    ) -> Result<usize, PianoError> {
        self.wait_for_reports_timeout(n, timeout)
    }

    /// [`epoch_session_ids`](Self::epoch_session_ids): a round's sessions
    /// are its epoch's.
    pub fn recheck_session_ids(&self) -> Vec<SessionId> {
        self.epoch_session_ids()
    }

    /// [`scan_and_decide`](Self::scan_and_decide): a round is scanned as
    /// its epoch.
    pub fn recheck_scan_and_decide(&self, hub_audio: &[f64], tick: usize) -> usize {
        self.scan_and_decide(hub_audio, tick)
    }

    /// [`scan_and_decide_arc`](Self::scan_and_decide_arc): a round is
    /// scanned as its epoch.
    pub fn recheck_scan_and_decide_arc(&self, hub_audio: Arc<[f64]>, tick: usize) -> usize {
        self.scan_and_decide_arc(hub_audio, tick)
    }

    /// Ends standing service: parked connections close on the reactor's
    /// next iteration (their clients observe a transport close), and
    /// newly granted feeds stop parking. Permanent.
    pub fn end_standing(&self) {
        self.shared.inbox.lock().end_standing = true;
        self.shared.ready.kick();
    }

    // -- the reactor loop --------------------------------------------------

    /// The reactor loop: drains the host mailbox, advances the timer
    /// wheel, gives every runnable or probe-mode connection a turn, and
    /// sleeps on the [`ReadySet`] bounded by the earliest timer. Runs
    /// until [`shutdown`](Self::shutdown). The loop state can be claimed
    /// only once — a second concurrent `run` returns immediately.
    pub fn run(&self) {
        let taken = self.shared.core.lock().take();
        let mut core = match taken {
            Some(c) => c,
            None => return,
        };
        loop {
            // Host mailbox first: admissions, scans, and the standing
            // commands.
            let (injected, scan, recheck, end_standing, shutdown) = {
                let mut inbox = self.shared.inbox.lock();
                (
                    mem::take(&mut inbox.injected),
                    inbox.scan.take(),
                    inbox.recheck.take(),
                    mem::take(&mut inbox.end_standing),
                    inbox.shutdown,
                )
            };
            if shutdown {
                break;
            }
            for t in injected {
                self.admit(&mut core, t);
            }
            if let Some(req) = scan {
                self.scan_epoch(&mut core, &req.hub, req.tick);
            }
            if let Some(round) = recheck {
                self.start_recheck_round(&mut core, round);
            }
            if end_standing {
                self.end_standing_sweep(&mut core);
            }

            // Expired timers, in deadline order.
            for key in core.wheel.advance(Instant::now()) {
                self.on_timer(&mut core, key, Instant::now());
            }

            // Turns: everything marked runnable plus every probe-mode
            // connection (their readiness is only discoverable by
            // trying).
            let mut work = mem::take(&mut core.runnable);
            work.extend(core.probe.iter().copied());
            for token in work {
                self.turn(&mut core, token);
            }

            // Sleep: not at all while work is queued; else until the
            // earliest timer, the probe tick, or a readiness event.
            let wait = if !core.runnable.is_empty() {
                Some(Duration::ZERO)
            } else {
                let now = Instant::now();
                let timer = core
                    .wheel
                    .next_deadline()
                    .map(|d| d.saturating_duration_since(now));
                match (timer, core.probe.is_empty()) {
                    (Some(t), false) => Some(t.min(PROBE_TICK)),
                    (Some(t), true) => Some(t),
                    (None, false) => Some(PROBE_TICK),
                    (None, true) => None,
                }
            };
            let (ready, _kicked) = self.shared.ready.drain_wait(wait);
            for token in ready {
                core.runnable.insert(token);
            }
        }
    }

    /// Admits a registered transport: allocates a token, wires its
    /// readiness signal (or marks it probe-mode), arms the handshake
    /// deadline, and queues its first turn.
    fn admit(&self, core: &mut Core, mut t: Box<dyn Transport>) {
        let sh = &*self.shared;
        sh.counters.connections.fetch_add(1, Ordering::Relaxed);
        let token = match core.free.pop() {
            Some(tok) => tok,
            None => {
                core.conns.push(None);
                core.conns.len() - 1
            }
        };
        let event_driven = t.register_ready(sh.ready.signal(token));
        if !event_driven {
            core.probe.insert(token);
        }
        let mut conn = Conn {
            t,
            reader: FrameReader::with_pool(sh.pool.clone()),
            armed_gen: 0,
            next_deadline: Instant::now() + sh.cfg.handshake_timeout,
            eof: false,
            phase: Phase::Handshake,
        };
        self.rearm(core, token, &mut conn);
        self.put_back(core, token, conn);
        core.runnable.insert(token);
    }

    /// Arms a fresh wheel entry for the connection's current
    /// `next_deadline`, invalidating any previous entry via the
    /// generation bump.
    fn rearm(&self, core: &mut Core, token: usize, conn: &mut Conn) {
        core.gen_counter += 1;
        conn.armed_gen = core.gen_counter;
        core.wheel.insert(
            conn.next_deadline,
            TimerKey::Conn {
                token,
                gen: conn.armed_gen,
            },
        );
    }

    /// Returns a connection to its slot after a turn.
    fn put_back(&self, core: &mut Core, token: usize, conn: Conn) {
        if let Some(slot) = core.conns.get_mut(token) {
            *slot = Some(conn);
        }
    }

    /// Finishes a turn: puts the connection back, or frees its token if
    /// the turn consumed it.
    fn finish_turn(&self, core: &mut Core, token: usize, out: Option<Conn>) {
        match out {
            Some(conn) => self.put_back(core, token, conn),
            None => {
                if core.conns.get(token).is_some_and(|slot| slot.is_none()) {
                    core.free.push(token);
                    core.probe.remove(&token);
                    core.runnable.remove(&token);
                }
            }
        }
    }

    /// One turn for one connection: read what is available, then drive
    /// its phase machine.
    fn turn(&self, core: &mut Core, token: usize) {
        core.runnable.remove(&token);
        let conn = match core.conns.get_mut(token).and_then(Option::take) {
            Some(c) => c,
            None => return, // stale token (freed or mid-scan delivery)
        };
        let out = self.drive(core, token, conn);
        self.finish_turn(core, token, out);
    }

    /// Reads pending bytes into the frame reader (bounded per turn),
    /// then dispatches on phase. `Some` = keep the connection; `None` =
    /// consumed (dropped, shed, suspended, or delivered).
    fn drive(&self, core: &mut Core, token: usize, mut conn: Conn) -> Option<Conn> {
        let mut got_bytes = false;
        for _ in 0..READS_PER_TURN {
            match conn.t.try_read(&mut core.scratch) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    got_bytes = true;
                    if let Some(bytes) = core.scratch.get(..n) {
                        conn.reader.push(bytes);
                    }
                    // Keep reading even after a short read: a peer that
                    // writes a final partial frame and immediately hangs
                    // up signals both edges in ONE readiness token, so
                    // stopping here would miss the EOF until the idle
                    // timer. The next iteration returns `WouldBlock`
                    // (nothing pending) or `Ok(0)` (the missed close).
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // A read error is end-of-transport; the phase logic
                    // decides whether that suspends or drops the feed.
                    let _ = e;
                    conn.eof = true;
                    break;
                }
            }
        }
        // The placeholder phase is never observed: every arm either
        // consumes the connection or stores a real phase back.
        match mem::replace(&mut conn.phase, Phase::Handshake) {
            Phase::Handshake => self.drive_handshake(core, token, conn),
            Phase::Streaming(state) => self.drive_streaming(core, token, conn, state, got_bytes),
            Phase::AwaitDecision { id, wire_session } => {
                // Bytes here are ignored; a close suspends the reported
                // feed at once, so a redialing client's `Resume` is
                // adopted without waiting for the scan. The decision
                // timer bounds the wait.
                if conn.eof {
                    drop(conn);
                    self.lose_reported(core, id, wire_session);
                    return None;
                }
                conn.phase = Phase::AwaitDecision { id, wire_session };
                Some(conn)
            }
            Phase::Standing { wire_session } => {
                // Parked between rounds: junk frames are discovered (and
                // accounted) at the next round's re-challenge; a close
                // leaves the standing population now.
                if conn.eof {
                    drop(conn);
                    self.drop_standing_conn(
                        None,
                        false,
                        DropCause::Disconnect,
                        &PianoError::Transport("standing connection closed".into()),
                    );
                    return None;
                }
                conn.phase = Phase::Standing { wire_session };
                Some(conn)
            }
            Phase::Rechecking(state) => self.drive_rechecking(core, token, conn, state),
            Phase::AwaitRecheckVerdict {
                id,
                wire_session,
                round,
            } => {
                // Nothing to read: the epoch scan delivers the verdict,
                // bounded by the decision timer.
                conn.phase = Phase::AwaitRecheckVerdict {
                    id,
                    wire_session,
                    round,
                };
                Some(conn)
            }
            Phase::PendingResume {
                wire_session,
                client_next_seq,
            } => {
                // Normally the losing connection's teardown adopts this
                // probe directly; the registry check covers a suspension
                // re-parked after a failed resume write.
                if let Some(susp) = core.suspended.remove(&wire_session) {
                    self.shared.counters.resumes.fetch_add(1, Ordering::Relaxed);
                    return self.attach(
                        core,
                        token,
                        conn,
                        wire_session,
                        client_next_seq,
                        susp.state,
                    );
                }
                conn.phase = Phase::PendingResume {
                    wire_session,
                    client_next_seq,
                };
                Some(conn)
            }
        }
    }

    /// Handshake phase: wait for the complete opening frame, then admit
    /// (`Hello`), adopt (`Resume` with a registry hit), park the probe
    /// (`Resume` without one), or drop.
    fn drive_handshake(&self, core: &mut Core, token: usize, mut conn: Conn) -> Option<Conn> {
        let first = match conn.reader.next_frame() {
            Ok(Some(m)) => m,
            Ok(None) => {
                if conn.eof {
                    drop(conn);
                    self.drop_conn_state(
                        None,
                        DropCause::Disconnect,
                        &PianoError::Transport("connection closed during handshake".into()),
                        false,
                    );
                    return None;
                }
                return Some(conn); // keep waiting; the handshake timer is armed
            }
            Err(e) => {
                drop(conn);
                self.drop_conn_state(None, DropCause::Framing, &e, false);
                return None;
            }
        };
        match first {
            Message::Hello { codecs } => self.handshake_hello(core, token, conn, &codecs),
            Message::Resume { session, next_seq } => {
                if let Some(susp) = core.suspended.remove(&session) {
                    self.shared.counters.resumes.fetch_add(1, Ordering::Relaxed);
                    return self.attach(core, token, conn, session, next_seq, susp.state);
                }
                conn.phase = Phase::PendingResume {
                    wire_session: session,
                    client_next_seq: next_seq,
                };
                Some(conn)
            }
            other => {
                drop(conn);
                self.drop_conn_state(
                    None,
                    DropCause::Protocol,
                    &PianoError::Wire(format!("expected Hello or Resume, got {other:?}")),
                    false,
                );
                None
            }
        }
    }

    /// `Hello`: admission check, codec negotiation, session open, and
    /// the `Accept` + challenge writes. Shedding happens before any
    /// session state exists, and the session RNG is drawn in arrival
    /// order.
    fn handshake_hello(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        codecs: &[u8],
    ) -> Option<Conn> {
        let sh = &*self.shared;
        // Admission control before any session state exists.
        let shed = {
            let progress = sh.progress.lock();
            progress.active >= sh.cfg.max_active_feeds
        };
        if shed {
            sh.counters.connections_shed.fetch_add(1, Ordering::Relaxed);
            let _ = conn.t.write_all(
                &Message::Retry {
                    retry_after_ms: sh.cfg.retry_after_ms,
                }
                .encode_framed(),
            );
            return None; // shed is not a drop
        }
        let codec = WireCodec::negotiate(codecs, &sh.cfg.supported_codecs);
        let (id, challenge, voucher) = match self.open_epoch_session(true) {
            Ok(opened) => opened,
            Err(e) => {
                drop(conn);
                self.drop_conn_state(None, DropCause::Protocol, &e, false);
                return None;
            }
        };
        // From here on, every pre-report exit must decrement `active`
        // exactly once.
        let wire_session = voucher.session_id();
        let accept = Message::Accept {
            session: wire_session,
            codec: codec.id(),
        };
        // The thin client must *play* S_V (Step III) even though the
        // gateway scans on its behalf, so it gets the Step II challenge.
        let wrote = conn
            .t
            .write_all(&accept.encode_framed())
            .and_then(|()| conn.t.write_all(&challenge.encode_framed()));
        if let Err(e) = wrote {
            drop(conn);
            self.dec_active();
            self.drop_conn_state(Some(id), DropCause::Disconnect, &io_transport(e), false);
            return None;
        }
        let state = Box::new(FeedState {
            id,
            wire_session,
            voucher,
            feed: {
                let mut feed = IngestFeed::new(wire_session, sh.cfg.high_water);
                feed.set_pool(sh.pool.clone());
                feed
            },
            ended: false,
            started: Instant::now(),
        });
        let now = Instant::now();
        conn.next_deadline = (now + sh.cfg.idle_timeout).min(state.started + sh.cfg.stream_timeout);
        conn.phase = Phase::Streaming(state);
        self.rearm(core, token, &mut conn);
        // Frames may already be buffered behind the handshake.
        core.runnable.insert(token);
        Some(conn)
    }

    /// Streaming phase: frames → feed accounting → voucher scan →
    /// flow-control replies, then conclude, reschedule, or suspend.
    fn drive_streaming(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        mut state: Box<FeedState>,
        got_bytes: bool,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        let stream_deadline = state.started + sh.cfg.stream_timeout;
        if got_bytes {
            // Data arrival resets the idle watchdog (bounded by the
            // whole-stream budget). Deadlines only ever move later, so
            // the armed wheel entry stays valid and re-arms on fire.
            let fresh = (Instant::now() + sh.cfg.idle_timeout).min(stream_deadline);
            if fresh > conn.next_deadline {
                conn.next_deadline = fresh;
            }
        }
        loop {
            let before = conn.reader.consumed();
            // A framing error propagates the reader's poison cause:
            // this connection is dropped, nothing else is.
            let msg = match conn.reader.next_frame() {
                Ok(Some(m)) => m,
                Ok(None) => break,
                Err(e) => {
                    drop(conn);
                    self.drop_feed(state, DropCause::Framing, &e);
                    return None;
                }
            };
            match msg {
                m @ (Message::AudioChunk { .. }
                | Message::AudioBatch { .. }
                | Message::AudioBatchI16 { .. }) => {
                    // `accept` enforces sequence contiguity and the
                    // backlog hard limit; violating either drops the
                    // connection here. Classify the hard-limit breach (a
                    // sender ignoring Busy) apart from the rest.
                    let overrun =
                        state.feed.buffered() + audio_samples(&m) > state.feed.hard_limit();
                    if let Err(e) = state.feed.accept(&m) {
                        let cause = if overrun {
                            DropCause::Overrun
                        } else {
                            DropCause::Protocol
                        };
                        drop(conn);
                        self.drop_feed(state, cause, &e);
                        return None;
                    }
                    sh.counters.frames_decoded.fetch_add(1, Ordering::Relaxed);
                    sh.counters
                        .wire_audio_bytes
                        .fetch_add(conn.reader.consumed() - before, Ordering::Relaxed);
                    sh.counters
                        .raw_audio_bytes
                        .fetch_add(codec::raw_framed_audio_bytes(&m), Ordering::Relaxed);
                }
                Message::StreamEnd { session } if session == state.wire_session => {
                    state.ended = true;
                }
                other => {
                    drop(conn);
                    self.drop_feed(
                        state,
                        DropCause::Protocol,
                        &PianoError::Wire(format!("unexpected mid-stream message {other:?}")),
                    );
                    return None;
                }
            }
        }
        // Drain one scan chunk per turn — the simulated scan rate that
        // makes watermark backpressure observable.
        // Drain straight from the feed's pooled segments into the
        // voucher — no staging copy. Segment boundaries only affect
        // chunking, which the scan is invariant to.
        {
            let st = &mut *state;
            let voucher = &mut st.voucher;
            st.feed.drain_pending(sh.cfg.drain_chunk, |run| {
                let _ = voucher.push_audio(run);
            });
        }
        while let Some(reply) = state.feed.poll_reply() {
            match &reply {
                Message::Busy { .. } => {
                    sh.counters.busy_replies.fetch_add(1, Ordering::Relaxed);
                }
                Message::Credit { .. } => {
                    sh.counters.credit_replies.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            if let Err(e) = conn.t.write_all(&reply.encode_framed()) {
                drop(conn);
                return self.lose_feed(core, state, io_transport(e));
            }
        }
        if state.ended && state.feed.buffered() == 0 {
            return self.conclude_report(core, token, conn, state);
        }
        if state.feed.buffered() > 0 {
            // Backlog pending: keep draining next turn (even past EOF —
            // audio already accepted is audio the scan gets).
            core.runnable.insert(token);
        } else if conn.eof {
            drop(conn);
            return self.lose_feed(
                core,
                state,
                PianoError::Transport("connection closed before StreamEnd".into()),
            );
        }
        conn.phase = Phase::Streaming(state);
        Some(conn)
    }

    /// The stream is complete: conclude the voucher scan, route its
    /// Step V report into the service, and either deliver the verdict
    /// (its epoch already scanned) or wait for it under the decision
    /// deadline.
    fn conclude_report(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        mut state: Box<FeedState>,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        sh.counters.max_peak(state.feed.peak_buffered() as u64);
        self.record_conn_footprint(&conn, &state);
        let _ = state.voucher.finish_audio();
        let report = match state.voucher.poll_transmit() {
            Some(r) => r,
            None => {
                drop(conn);
                self.drop_feed(
                    state,
                    DropCause::Protocol,
                    &PianoError::Wire("voucher produced no report".into()),
                );
                return None;
            }
        };
        if let Err(e) = sh.service.handle_message(state.id, report) {
            drop(conn);
            self.drop_feed(state, DropCause::Protocol, &e);
            return None;
        }
        self.dec_active();
        let (id, wire_session) = (state.id, state.wire_session);
        drop(state);
        if !self.count_report(id) {
            return self.deliver(core, conn, id, wire_session, None);
        }
        if conn.eof {
            // The close arrived with the stream's end: no later turn
            // would see it.
            drop(conn);
            self.lose_reported(core, id, wire_session);
            return None;
        }
        conn.phase = Phase::AwaitDecision { id, wire_session };
        conn.next_deadline = Instant::now() + sh.cfg.decision_timeout;
        self.rearm(core, token, &mut conn);
        Some(conn)
    }

    /// Counts a routed report toward the open epoch's wait. `false` when
    /// the session's epoch was already scanned: its verdict is ready.
    fn count_report(&self, id: SessionId) -> bool {
        let mut progress = self.shared.progress.lock();
        let open = progress.epoch.ids.contains(&id);
        if open {
            progress.epoch.reports += 1;
            self.shared.progress_cv.notify_all();
        }
        open
    }

    /// The session's verdict, closing the session: a session lives until
    /// its verdict is written.
    fn take_verdict(&self, id: SessionId) -> AuthDecision {
        let closed = self.shared.service.close_session(id);
        closed
            .and_then(|session| session.decision().cloned())
            .unwrap_or(AuthDecision::Denied {
                reason: DenialReason::ProtocolFailure(
                    "session undecided after its epoch scan".into(),
                ),
            })
    }

    /// Writes the session's verdict — `verdict`, or the epoch scan's
    /// (which closes the session). With a resume window configured the
    /// verdict parks in the registry *before* the write, so a client
    /// that loses the connection with the `Decision` frame in flight can
    /// reconnect and have it re-sent. Consumes the connection — unless
    /// [`ServerConfig::standing`] is set and the verdict granted, in
    /// which case the connection parks in [`Phase::Standing`] for
    /// continuous re-verification.
    fn deliver(
        &self,
        core: &mut Core,
        mut conn: Conn,
        id: SessionId,
        wire_session: u64,
        verdict: Option<AuthDecision>,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        let decision = verdict.unwrap_or_else(|| self.take_verdict(id));
        if !sh.cfg.resume_window.is_zero() {
            let verdict = Some(decision.clone());
            self.park(core, wire_session, Parked::Decided { id, verdict });
        }
        let frame = Message::Decision {
            session: wire_session,
            decision: decision.clone(),
        }
        .encode_framed();
        match conn.t.write_all(&frame) {
            Ok(()) => {
                let standing = sh.cfg.standing && !core.standing_over && decision.is_granted();
                {
                    let mut progress = sh.progress.lock();
                    progress.outcomes.push((id, decision));
                    if standing {
                        progress.standing += 1;
                        sh.progress_cv.notify_all();
                    }
                }
                if standing {
                    conn.phase = Phase::Standing { wire_session };
                    return Some(conn);
                }
            }
            Err(e) if !sh.cfg.resume_window.is_zero() => {
                // The Decided entry parked above lets the client resume
                // and re-read the verdict.
                let _ = e;
            }
            Err(e) => {
                // Post-report failures are waived: this feed already
                // counted in its epoch's reports, so adding it to the
                // drops would make the wait see it twice.
                self.drop_conn_state(Some(id), DropCause::Disconnect, &io_transport(e), true);
            }
        }
        None
    }

    /// Opens a service session in the open epoch, takes its Step II
    /// challenge, and builds the gateway voucher that answers it. A
    /// first authentication (`first`) also joins
    /// [`session_ids`](Self::session_ids) and the active population. On
    /// failure no session is left open.
    fn open_epoch_session(
        &self,
        first: bool,
    ) -> Result<(SessionId, Message, AuthSession), PianoError> {
        let sh = &*self.shared;
        let opened = {
            let mut rng = sh.rng.lock();
            sh.service.with_default(|svc| {
                let id = svc.open_session(false, &mut rng);
                // A freshly opened session always queues its Step II
                // challenge; treat a missing one as a protocol-layer
                // failure rather than a server panic.
                match svc.poll_transmit(id) {
                    Some(challenge) => Some((id, challenge, Arc::clone(svc.detector()))),
                    None => {
                        let _ = svc.close_session(id);
                        None
                    }
                }
            })
        };
        let (id, challenge, detector) = opened
            .flatten()
            .ok_or_else(|| PianoError::Wire("opened session queued no challenge".into()))?;
        let mut voucher = AuthSession::voucher_with(detector);
        if let Err(e) = voucher.handle_message(challenge.clone()) {
            let _ = sh.service.close_session(id);
            return Err(e);
        }
        let mut progress = sh.progress.lock();
        progress.epoch.ids.push(id);
        if first {
            progress.first_ids.push(id);
            progress.active += 1;
        }
        Ok((id, challenge, voucher))
    }

    // -- continuous re-verification ----------------------------------------

    /// Opens re-challenge round `round` on every standing connection, in
    /// token order (which fixes the round's hub-geometry order): fresh
    /// per-round service session, fresh signals, [`Message::Recheck`]
    /// written over the live connection, and the answer bounded by a
    /// [`ServerConfig::recheck_timeout`] entry on the timer wheel.
    fn start_recheck_round(&self, core: &mut Core, round: u64) {
        let standing: Vec<usize> = core
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some(c) if matches!(c.phase, Phase::Standing { .. }) => Some(i),
                _ => None,
            })
            .collect();
        for token in standing {
            let conn = match core.conns.get_mut(token).and_then(Option::take) {
                Some(c) => c,
                None => continue,
            };
            let out = self.open_recheck(core, token, conn, round);
            self.finish_turn(core, token, out);
        }
    }

    /// One standing connection's round opening. Any failure here — the
    /// service refusing a session, or the `Recheck` write discovering a
    /// dead transport — removes the connection from the standing
    /// population and counts toward the round's wait.
    fn open_recheck(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        round: u64,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        let wire_session = match mem::replace(&mut conn.phase, Phase::Handshake) {
            Phase::Standing { wire_session } => wire_session,
            other => {
                conn.phase = other;
                return Some(conn);
            }
        };
        let (id, challenge, voucher) = match self.open_epoch_session(false) {
            Ok(opened) => opened,
            Err(e) => {
                drop(conn);
                self.drop_standing_conn(None, true, DropCause::Protocol, &e);
                return None;
            }
        };
        let (sa, sv) = match challenge {
            Message::ReferenceSignals { sa, sv, .. } => (sa, sv),
            other => {
                drop(conn);
                self.drop_standing_conn(
                    Some(id),
                    true,
                    DropCause::Protocol,
                    &PianoError::Wire(format!("re-check challenge was {other:?}")),
                );
                return None;
            }
        };
        // Four billion host-driven sequential rounds before this
        // truncates.
        let wire_round = round as u32;
        let frame = Message::Recheck {
            session: wire_session,
            round: wire_round,
            sa,
            sv,
        }
        .encode_framed();
        if let Err(e) = conn.t.write_all(&frame) {
            drop(conn);
            self.drop_standing_conn(Some(id), true, DropCause::Disconnect, &io_transport(e));
            return None;
        }
        conn.phase = Phase::Rechecking(Box::new(RecheckState {
            id,
            wire_session,
            round,
            voucher,
            next_seq: 0,
        }));
        conn.next_deadline = Instant::now() + sh.cfg.recheck_timeout;
        self.rearm(core, token, &mut conn);
        // The client may have answered before this turn.
        core.runnable.insert(token);
        Some(conn)
    }

    /// Re-challenge ingest: [`Message::RecheckAudio`] frames stream into
    /// the per-round voucher (sequence-contiguous, no flow control — a
    /// round's answer is one short bounded burst) until `done`.
    fn drive_rechecking(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        mut state: Box<RecheckState>,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        let wire_round = state.round as u32;
        loop {
            let before = conn.reader.consumed();
            let msg = match conn.reader.next_frame() {
                Ok(Some(m)) => m,
                Ok(None) => break,
                Err(e) => {
                    drop(conn);
                    self.drop_standing_conn(Some(state.id), true, DropCause::Framing, &e);
                    return None;
                }
            };
            match msg {
                ref m @ Message::RecheckAudio {
                    session,
                    round,
                    seq,
                    done,
                    ref samples,
                } if session == state.wire_session && round == wire_round => {
                    if seq != state.next_seq {
                        drop(conn);
                        self.drop_standing_conn(
                            Some(state.id),
                            true,
                            DropCause::Protocol,
                            &PianoError::Wire(format!(
                                "re-check chunk seq {seq}, expected {}",
                                state.next_seq
                            )),
                        );
                        return None;
                    }
                    state.next_seq = state.next_seq.wrapping_add(1);
                    sh.counters.frames_decoded.fetch_add(1, Ordering::Relaxed);
                    sh.counters
                        .wire_audio_bytes
                        .fetch_add(conn.reader.consumed() - before, Ordering::Relaxed);
                    sh.counters
                        .raw_audio_bytes
                        .fetch_add(codec::raw_framed_audio_bytes(m), Ordering::Relaxed);
                    if !samples.is_empty() {
                        let _ = state.voucher.push_audio(samples);
                    }
                    if done {
                        return self.conclude_recheck(core, token, conn, state);
                    }
                }
                other => {
                    drop(conn);
                    self.drop_standing_conn(
                        Some(state.id),
                        true,
                        DropCause::Protocol,
                        &PianoError::Wire(format!("unexpected mid-recheck message {other:?}")),
                    );
                    return None;
                }
            }
        }
        if conn.eof {
            drop(conn);
            self.drop_standing_conn(
                Some(state.id),
                true,
                DropCause::Disconnect,
                &PianoError::Transport("connection closed mid-recheck".into()),
            );
            return None;
        }
        conn.phase = Phase::Rechecking(state);
        Some(conn)
    }

    /// The round's answer is complete: conclude the per-round voucher,
    /// route its report into the service, count toward the host's round
    /// wait, and park until the epoch scan delivers the verdict.
    fn conclude_recheck(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        mut state: Box<RecheckState>,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        let _ = state.voucher.finish_audio();
        let report = match state.voucher.poll_transmit() {
            Some(r) => r,
            None => {
                drop(conn);
                self.drop_standing_conn(
                    Some(state.id),
                    true,
                    DropCause::Protocol,
                    &PianoError::Wire("re-check voucher produced no report".into()),
                );
                return None;
            }
        };
        if let Err(e) = sh.service.handle_message(state.id, report) {
            drop(conn);
            self.drop_standing_conn(Some(state.id), true, DropCause::Protocol, &e);
            return None;
        }
        let RecheckState {
            id,
            wire_session,
            round,
            ..
        } = *state;
        if !self.count_report(id) {
            // The host scanned this round's epoch already (it waited on
            // fewer reports than there are standing feeds).
            return self.deliver_recheck_verdict(core, conn, id, wire_session, round);
        }
        conn.phase = Phase::AwaitRecheckVerdict {
            id,
            wire_session,
            round,
        };
        conn.next_deadline = Instant::now() + sh.cfg.decision_timeout;
        self.rearm(core, token, &mut conn);
        Some(conn)
    }

    /// Writes one round's verdict back over the standing connection
    /// (closing the round's session), then re-parks it — or closes it
    /// when standing service has ended.
    fn deliver_recheck_verdict(
        &self,
        core: &mut Core,
        mut conn: Conn,
        id: SessionId,
        wire_session: u64,
        round: u64,
    ) -> Option<Conn> {
        let frame = Message::RecheckVerdict {
            session: wire_session,
            round: round as u32,
            decision: self.take_verdict(id),
        }
        .encode_framed();
        if let Err(e) = conn.t.write_all(&frame) {
            drop(conn);
            // Post-ready: the round already counted this feed, so only
            // the standing population shrinks.
            self.drop_standing_conn(None, false, DropCause::Disconnect, &io_transport(e));
            return None;
        }
        if core.standing_over {
            drop(conn);
            self.leave_standing(1);
            return None;
        }
        conn.phase = Phase::Standing { wire_session };
        Some(conn)
    }

    /// Ends standing service: every parked connection closes now;
    /// connections mid-round close right after their verdict delivers.
    fn end_standing_sweep(&self, core: &mut Core) {
        core.standing_over = true;
        let parked: Vec<usize> = core
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some(c) if matches!(c.phase, Phase::Standing { .. }) => Some(i),
                _ => None,
            })
            .collect();
        let mut ended = 0usize;
        for token in parked {
            if core.conns.get_mut(token).and_then(Option::take).is_some() {
                ended += 1;
                self.finish_turn(core, token, None);
            }
        }
        self.leave_standing(ended);
    }

    /// `n` standing connections left.
    fn leave_standing(&self, n: usize) {
        if n > 0 {
            let mut progress = self.shared.progress.lock();
            progress.standing = progress.standing.saturating_sub(n);
            self.shared.progress_cv.notify_all();
        }
    }

    /// A standing connection left (fault or round failure): standing
    /// population and drop accounting in one step. `mid_round` failures
    /// count toward the round's wait (the feed's report will never
    /// arrive); every failure closes the round's session `id`, if any.
    fn drop_standing_conn(
        &self,
        id: Option<SessionId>,
        mid_round: bool,
        cause: DropCause,
        err: &PianoError,
    ) {
        self.leave_standing(1);
        self.drop_conn_state(id, cause, err, !mid_round);
    }

    // -- suspension and resume ---------------------------------------------

    /// Inserts a registry entry with a fresh generation and arms its
    /// resume-window expiry on the wheel.
    fn park(&self, core: &mut Core, wire_session: u64, state: Parked) {
        core.gen_counter += 1;
        let gen = core.gen_counter;
        core.suspended
            .insert(wire_session, Suspension { state, gen });
        core.wheel.insert(
            Instant::now() + self.shared.cfg.resume_window,
            TimerKey::Suspended { wire_session, gen },
        );
    }

    /// The transport died mid-stream: suspend the feed — or drop it
    /// when no resume window is configured. Always returns `None`.
    fn lose_feed(&self, core: &mut Core, state: Box<FeedState>, err: PianoError) -> Option<Conn> {
        self.dec_active();
        if self.shared.cfg.resume_window.is_zero() {
            self.drop_conn_state(Some(state.id), DropCause::Disconnect, &err, false);
            return None;
        }
        let wire_session = state.wire_session;
        self.suspend(core, wire_session, Parked::Streaming(state));
        None
    }

    /// The transport of a reported feed died before its verdict: suspend
    /// the feed so a resume is answered with the verdict — or drop it
    /// (waived: the feed already reported) without a resume window.
    fn lose_reported(&self, core: &mut Core, id: SessionId, wire_session: u64) {
        if self.shared.cfg.resume_window.is_zero() {
            let err = PianoError::Transport("connection closed awaiting its verdict".into());
            self.drop_conn_state(Some(id), DropCause::Disconnect, &err, true);
            return;
        }
        let verdict = None;
        self.suspend(core, wire_session, Parked::Decided { id, verdict });
    }

    /// Suspends a wire session: hands `state` straight to a parked
    /// `Resume` probe (a reconnect can beat the loss discovery), else
    /// parks it in the registry.
    fn suspend(&self, core: &mut Core, wire_session: u64, state: Parked) {
        let sh = &*self.shared;
        sh.counters
            .connections_suspended
            .fetch_add(1, Ordering::Relaxed);
        let probe = find_pending_resume(core, wire_session)
            .and_then(|token| Some((token, core.conns.get_mut(token)?.take()?)));
        let Some((token, probe)) = probe else {
            self.park(core, wire_session, state);
            return;
        };
        sh.counters.resumes.fetch_add(1, Ordering::Relaxed);
        let client_next_seq = match probe.phase {
            Phase::PendingResume {
                client_next_seq, ..
            } => client_next_seq,
            _ => 0,
        };
        let out = self.attach(core, token, probe, wire_session, client_next_seq, state);
        self.finish_turn(core, token, out);
    }

    /// Re-attaches a reconnecting client to its suspended feed (or
    /// answers it with its verdict), writing `ResumeAck` first.
    fn attach(
        &self,
        core: &mut Core,
        token: usize,
        mut conn: Conn,
        wire_session: u64,
        client_next_seq: u32,
        parked: Parked,
    ) -> Option<Conn> {
        let sh = &*self.shared;
        match parked {
            Parked::Streaming(mut state) => {
                {
                    let mut progress = sh.progress.lock();
                    progress.active += 1;
                }
                // Flow-control replies queued for the dead transport are
                // stale; the ack below re-synchronizes both sides at the
                // feed's contiguity cursor (`client_next_seq` may trail
                // or lead it — the ack's cursor wins either way).
                state.feed.resync_flow();
                let _ = client_next_seq;
                let ack = Message::ResumeAck {
                    session: wire_session,
                    ack_seq: state.feed.next_seq(),
                    ended: state.ended,
                };
                if let Err(e) = conn.t.write_all(&ack.encode_framed()) {
                    drop(conn);
                    return self.lose_feed(core, state, io_transport(e));
                }
                let now = Instant::now();
                conn.next_deadline =
                    (now + sh.cfg.idle_timeout).min(state.started + sh.cfg.stream_timeout);
                conn.phase = Phase::Streaming(state);
                self.rearm(core, token, &mut conn);
                core.runnable.insert(token);
                Some(conn)
            }
            Parked::Decided { id, verdict } => {
                let ack = Message::ResumeAck {
                    session: wire_session,
                    ack_seq: client_next_seq,
                    ended: true,
                };
                if let Err(e) = conn.t.write_all(&ack.encode_framed()) {
                    drop(conn);
                    // Park the verdict again for the next attempt.
                    self.park(core, wire_session, Parked::Decided { id, verdict });
                    self.drop_conn_state(None, DropCause::Disconnect, &io_transport(e), true);
                    return None;
                }
                if verdict.is_some() || !self.in_open_epoch(id) {
                    return self.deliver(core, conn, id, wire_session, verdict);
                }
                conn.phase = Phase::AwaitDecision { id, wire_session };
                conn.next_deadline = Instant::now() + sh.cfg.decision_timeout;
                self.rearm(core, token, &mut conn);
                Some(conn)
            }
        }
    }

    /// Whether `id` belongs to the open (not yet scanned) epoch.
    fn in_open_epoch(&self, id: SessionId) -> bool {
        self.shared.progress.lock().epoch.ids.contains(&id)
    }

    // -- timers ------------------------------------------------------------

    /// Handles one expired wheel entry: re-arms if the deadline moved or
    /// the generation is stale, else enforces the phase timeout.
    fn on_timer(&self, core: &mut Core, key: TimerKey, now: Instant) {
        match key {
            TimerKey::Conn { token, gen } => {
                let conn = match core.conns.get_mut(token).and_then(Option::take) {
                    Some(c) => c,
                    None => return,
                };
                if conn.armed_gen != gen {
                    self.put_back(core, token, conn); // superseded entry
                    return;
                }
                if now < conn.next_deadline {
                    // The deadline moved later (data arrived): re-arm
                    // the same generation at the new deadline.
                    core.wheel
                        .insert(conn.next_deadline, TimerKey::Conn { token, gen });
                    self.put_back(core, token, conn);
                    return;
                }
                self.expire_conn(core, token, conn, now);
            }
            TimerKey::Suspended { wire_session, gen } => {
                let lapsed = core
                    .suspended
                    .get(&wire_session)
                    .is_some_and(|s| s.gen == gen);
                if !lapsed {
                    return; // resumed, or re-parked under a newer window
                }
                let susp = match core.suspended.remove(&wire_session) {
                    Some(s) => s,
                    None => return,
                };
                match susp.state {
                    Parked::Streaming(state) => {
                        // Expired mid-stream feeds drop (counted toward
                        // the report wait); expired verdict entries are
                        // forgotten silently — their feed already
                        // reported — and close their session if the
                        // verdict was never written.
                        self.drop_conn_state(
                            Some(state.id),
                            DropCause::ResumeExpired,
                            &PianoError::Timeout("resume window expired".into()),
                            false,
                        );
                    }
                    Parked::Decided { id, .. } => {
                        let _ = self.shared.service.close_session(id);
                    }
                }
            }
        }
    }

    /// A connection's phase deadline genuinely fired: classify and drop
    /// — except a draining stream, whose watchdogs only bite while the
    /// backlog is empty.
    fn expire_conn(&self, core: &mut Core, token: usize, mut conn: Conn, now: Instant) {
        let sh = &*self.shared;
        match mem::replace(&mut conn.phase, Phase::Handshake) {
            Phase::Handshake => {
                drop(conn);
                self.drop_conn_state(
                    None,
                    DropCause::Timeout,
                    &PianoError::Timeout("handshake deadline missed".into()),
                    false,
                );
            }
            Phase::Streaming(state) => {
                if state.feed.buffered() > 0 || state.ended {
                    // Draining: not idle, so no timeout applies. Keep a
                    // watchdog armed for when the backlog empties again.
                    conn.next_deadline =
                        (now + sh.cfg.idle_timeout).min(state.started + sh.cfg.stream_timeout);
                    conn.phase = Phase::Streaming(state);
                    self.rearm(core, token, &mut conn);
                    self.put_back(core, token, conn);
                    return;
                }
                let err = if now >= state.started + sh.cfg.stream_timeout {
                    PianoError::Timeout("stream budget exhausted mid-stream".into())
                } else {
                    PianoError::Timeout(format!(
                        "feed idle for {:?} mid-stream",
                        sh.cfg.idle_timeout
                    ))
                };
                drop(conn);
                self.drop_feed(state, DropCause::Timeout, &err);
            }
            Phase::AwaitDecision { id, .. } => {
                drop(conn);
                // Waived: the feed already counted in its epoch's reports.
                self.drop_conn_state(
                    Some(id),
                    DropCause::Timeout,
                    &PianoError::Timeout(
                        "hub scan did not conclude within the decision deadline".into(),
                    ),
                    true,
                );
            }
            Phase::Standing { wire_session } => {
                // A stale pre-standing deadline (the decision timer armed
                // before the feed parked): standing connections carry no
                // deadline of their own between rounds.
                conn.phase = Phase::Standing { wire_session };
                self.put_back(core, token, conn);
            }
            Phase::Rechecking(state) => {
                drop(conn);
                self.drop_standing_conn(
                    Some(state.id),
                    true,
                    DropCause::Timeout,
                    &PianoError::Timeout("re-check answer deadline missed".into()),
                );
            }
            Phase::AwaitRecheckVerdict { id, .. } => {
                drop(conn);
                // Post-ready: the round counted this feed.
                self.drop_standing_conn(
                    Some(id),
                    false,
                    DropCause::Timeout,
                    &PianoError::Timeout(
                        "epoch scan did not conclude within the decision deadline".into(),
                    ),
                );
            }
            Phase::PendingResume { wire_session, .. } => {
                drop(conn);
                // The feed this probe hoped to resume is accounted for
                // elsewhere (still live, already dropped, or never
                // existed): never double-count it in the wait.
                self.drop_conn_state(
                    None,
                    DropCause::Protocol,
                    &PianoError::Wire(format!(
                        "resume for unknown or expired session {wire_session:#x}"
                    )),
                    true,
                );
            }
        }
    }

    // -- scan ------------------------------------------------------------

    /// Scans the open epoch: streams the hub recording through the
    /// service in `tick`-sample chunks, concludes the scan groups, writes
    /// the verdict of every waiting connection in token order (a
    /// connection waits only on the open epoch: one whose epoch was
    /// scanned is answered at once), then opens the next epoch and
    /// publishes the scanned one.
    fn scan_epoch(&self, core: &mut Core, hub: &[f64], tick: usize) {
        let sh = &*self.shared;
        for chunk in hub.chunks(tick.max(1)) {
            let _ = sh.service.push_audio(chunk);
        }
        let _ = sh.service.finish_audio();
        let ids = sh.progress.lock().epoch.ids.clone();
        let decided = ids
            .iter()
            .filter(|&&id| sh.service.decision(id).is_some())
            .count();
        let waiting: Vec<usize> = core
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some(c) => matches!(
                    c.phase,
                    Phase::AwaitDecision { .. } | Phase::AwaitRecheckVerdict { .. }
                )
                .then_some(i),
                None => None,
            })
            .collect();
        for token in waiting {
            let Some(mut conn) = core.conns.get_mut(token).and_then(Option::take) else {
                continue;
            };
            let out = match mem::replace(&mut conn.phase, Phase::Handshake) {
                Phase::AwaitDecision { id, wire_session } => {
                    self.deliver(core, conn, id, wire_session, None)
                }
                Phase::AwaitRecheckVerdict {
                    id,
                    wire_session,
                    round,
                } => self.deliver_recheck_verdict(core, conn, id, wire_session, round),
                other => {
                    conn.phase = other;
                    Some(conn)
                }
            };
            self.finish_turn(core, token, out);
        }
        sh.counters
            .sessions_decided
            .fetch_add(decided as u64, Ordering::Relaxed);
        // Publish *after* the verdict writes above: a host returning from
        // `scan_and_decide` must observe every outcome the scan produced.
        let mut progress = sh.progress.lock();
        let next = Epoch {
            number: progress.epoch.number + 1,
            ..Epoch::default()
        };
        progress.scanned = Epoch {
            decided,
            ..mem::replace(&mut progress.epoch, next)
        };
        sh.progress_cv.notify_all();
    }

    // -- drop accounting ---------------------------------------------------

    /// Decrements the active-feed population (attach's inverse).
    fn dec_active(&self) {
        let mut progress = self.shared.progress.lock();
        progress.active = progress.active.saturating_sub(1);
    }

    /// Drops an *attached* feed: active-population and drop accounting
    /// in one step.
    fn drop_feed(&self, state: Box<FeedState>, cause: DropCause, err: &PianoError) {
        self.dec_active();
        self.drop_conn_state(Some(state.id), cause, err, false);
    }

    /// The drop-only-this-connection path: count the cause, log it,
    /// close the service session, and — unless waived, or the session's
    /// epoch was already scanned — count it where
    /// [`wait_for_reports`](Self::wait_for_reports) can see it.
    fn drop_conn_state(
        &self,
        id: Option<SessionId>,
        cause: DropCause,
        err: &PianoError,
        waived: bool,
    ) {
        self.shared.counters.count_drop(cause);
        eprintln!(
            "dropping connection{}: {} [{}]",
            match id {
                Some(id) => format!(" (session {id:?})"),
                None => String::new(),
            },
            err,
            cause,
        );
        if let Some(id) = id {
            let _ = self.shared.service.close_session(id);
        }
        if !waived {
            let mut progress = self.shared.progress.lock();
            if id.is_none_or(|id| progress.epoch.ids.contains(&id)) {
                progress.epoch.drops += 1;
                self.shared.progress_cv.notify_all();
            }
        }
    }

    /// Records this connection's resident footprint for the bench's
    /// connection-ceiling accounting: state machine + frame-reader
    /// buffer + peak backlog samples.
    fn record_conn_footprint(&self, conn: &Conn, state: &FeedState) {
        let bytes = mem::size_of::<Conn>()
            + mem::size_of::<FeedState>()
            + conn.reader.buffer_capacity()
            + state.feed.peak_buffered() * mem::size_of::<f64>();
        self.shared
            .conn_bytes_peak
            .fetch_max(bytes as u64, Ordering::Relaxed);
    }
}

/// The token of a parked `Resume` probe waiting for `wire_session`, if
/// any.
fn find_pending_resume(core: &Core, wire_session: u64) -> Option<usize> {
    core.conns
        .iter()
        .enumerate()
        .find_map(|(i, slot)| match slot {
            Some(c) => match c.phase {
                Phase::PendingResume {
                    wire_session: w, ..
                } if w == wire_session => Some(i),
                _ => None,
            },
            None => None,
        })
}
