//! The transport server: accepts connections, demultiplexes many
//! concurrent sessions per connection, and runs each session's server
//! half over the same router and plan cache the in-process engine uses.
//!
//! One thread accepts; one thread per connection waits for the
//! connection's frames, admits each Open and runs the admitted session's
//! server (Bob) half itself over a [`RemoteChan`]. While it is busy the
//! connection's other sessions read the socket (see [`crate::mux`]): an
//! Open one of them reads is admitted on the spot and run on a reused
//! helper thread of the connection. No thread is spawned per session.
//!
//! Shutdown is a drain, not a drop: [`NetServer::shutdown`] stops
//! admitting, waits for in-flight sessions to finish (bounded by the
//! configured drain window), sends [`WireFrame::Goodbye`] on every live
//! connection, and only then closes the sockets — so a SIGTERM during a
//! burst never kills a session mid-round.

use crate::chan::RemoteChan;
use crate::frame::WireFrame;
use crate::metrics;
use crate::mux::{deadline_after, Conn, Task, CONN_KEY};
use crate::transport::{EndpointAddr, Listener, Stream};
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::net::{LinkSender, LinkSet, PlayerCtx};
use intersect_comm::runner::Side;
use intersect_core::prepared::PreparedProtocol;
use intersect_core::sets::ElementSet;
use intersect_engine::{
    route, MultipartyRequest, PairContextCache, PlanCache, RoutePolicy, SessionRequest,
};
use intersect_multiparty::choice::PlayerOutput;
use intersect_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Where to listen.
    pub endpoint: EndpointAddr,
    /// Routing policy for requests without a per-line protocol override.
    pub policy: RoutePolicy,
    /// Cap on sessions executing concurrently across all connections;
    /// opens beyond it are refused with a clean error frame.
    pub max_active_sessions: usize,
    /// Per-receive timeout of each session's channel.
    pub session_timeout: Duration,
    /// How long [`NetServer::shutdown`] waits for in-flight sessions.
    pub drain_timeout: Duration,
}

impl NetServerConfig {
    /// Defaults: auto routing, 256 concurrent sessions, 30 s receives,
    /// 10 s drain.
    pub fn new(endpoint: EndpointAddr) -> NetServerConfig {
        NetServerConfig {
            endpoint,
            policy: RoutePolicy::default(),
            max_active_sessions: 256,
            session_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters the server accumulated over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Sessions that ran to completion.
    pub sessions_served: u64,
    /// Sessions that failed with a protocol error.
    pub sessions_failed: u64,
    /// Session opens refused (draining, capacity, malformed).
    pub sessions_rejected: u64,
}

struct Shared {
    policy: RoutePolicy,
    cache: PlanCache,
    pair_contexts: PairContextCache,
    max_active: usize,
    timeout: Duration,
    draining: AtomicBool,
    active: AtomicU64,
    connections: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running transport server. Dropping it shuts it down (with drain).
#[derive(Debug)]
pub struct NetServer {
    local: EndpointAddr,
    shared: Arc<Shared>,
    drain: Duration,
    accept_thread: Option<JoinHandle<()>>,
    stopped: bool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Shared(active={}, draining={})",
            self.active.load(Ordering::Relaxed),
            self.draining.load(Ordering::Relaxed)
        )
    }
}

impl NetServer {
    /// Binds the endpoint and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: NetServerConfig) -> std::io::Result<NetServer> {
        metrics::describe_net_metrics();
        let listener = Listener::bind(&config.endpoint)?;
        let local = listener.local_addr();
        let shared = Arc::new(Shared {
            policy: config.policy,
            cache: PlanCache::new(),
            pair_contexts: PairContextCache::new(),
            max_active: config.max_active_sessions.max(1),
            timeout: config.session_timeout,
            draining: AtomicBool::new(false),
            active: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(NetServer {
            local,
            shared,
            drain: config.drain_timeout,
            accept_thread: Some(accept_thread),
            stopped: false,
        })
    }

    /// The endpoint actually bound (real port for `tcp:…:0`).
    pub fn local_addr(&self) -> &EndpointAddr {
        &self.local
    }

    /// Sessions currently executing.
    pub fn active_sessions(&self) -> u64 {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Lifetime counters so far.
    pub fn summary(&self) -> NetSummary {
        NetSummary {
            connections: self.shared.connections.load(Ordering::Relaxed),
            sessions_served: self.shared.served.load(Ordering::Relaxed),
            sessions_failed: self.shared.failed.load(Ordering::Relaxed),
            sessions_rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }

    /// Drains and stops: refuses new sessions, waits (up to the drain
    /// window) for in-flight ones, says [`WireFrame::Goodbye`] on every
    /// live connection, closes sockets, and joins every thread.
    pub fn shutdown(&mut self) -> NetSummary {
        if self.stopped {
            return self.summary();
        }
        self.stopped = true;
        self.shared.draining.store(true, Ordering::Release);

        // Drain: in-flight sessions keep their connections and finish.
        let deadline = Instant::now() + self.drain;
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }

        // Farewell on every live connection, then unblock its reader.
        {
            let conns = self.shared.conns.lock().expect("conn registry poisoned");
            for conn in conns.values() {
                let _ = conn.send(&WireFrame::Goodbye, true);
                conn.shutdown();
            }
        }

        // Unblock the accept loop with a throwaway connection; it checks
        // the draining flag before serving what it accepted.
        let _ = Stream::connect(&self.local);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .shared
                .conn_threads
                .lock()
                .expect("conn threads poisoned"),
        );
        for t in threads {
            let _ = t.join();
        }
        self.summary()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    let mut next_conn = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.draining.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            stream.shutdown();
            break;
        }
        next_conn += 1;
        let conn_id = next_conn;
        shared.connections.fetch_add(1, Ordering::Relaxed);
        metrics::connection_delta(1);
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            conn_loop(conn_id, stream, conn_shared);
        });
        // Reap the threads of connections that have ended: an unjoined
        // finished thread keeps its stack mapped until shutdown.
        let mut threads = shared.conn_threads.lock().expect("conn threads poisoned");
        let (finished, mut live): (Vec<_>, Vec<_>) =
            threads.drain(..).partition(JoinHandle::is_finished);
        for t in finished {
            let _ = t.join();
        }
        live.push(handle);
        *threads = live;
    }
    listener.cleanup();
}

fn conn_loop(conn_id: u64, stream: Stream, shared: Arc<Shared>) {
    let stray_shared = Arc::clone(&shared);
    let stray = Box::new(move |conn: &Arc<Conn>, frame| handle_stray(&stray_shared, conn, frame));
    let Ok(conn) = Conn::new(stream, shared.timeout, stray) else {
        metrics::connection_delta(-1);
        return;
    };
    conn.register(CONN_KEY.0, 0);
    shared
        .conns
        .lock()
        .expect("conn registry poisoned")
        .insert(conn_id, Arc::clone(&conn));

    // This thread is the waiter with no session: with no deadline, until
    // the stream ends. The sessions it admits run inside its wait; what
    // the wait returns is a connection-level frame nothing acts on (a
    // client's session-0 error report).
    while conn.wait(CONN_KEY, None).is_ok() {}

    // Sessions still running saw the connection close; their threads
    // are joined before the connection retires.
    conn.join_helpers();
    shared
        .conns
        .lock()
        .expect("conn registry poisoned")
        .remove(&conn_id);
    metrics::connection_delta(-1);
}

/// What the server does with a frame no session is registered for. Runs
/// on the thread that read it, which still holds the connection's read
/// role — so an admitted session's inbox exists before the next frame,
/// possibly that session's first message, is read.
fn handle_stray(shared: &Arc<Shared>, conn: &Arc<Conn>, frame: WireFrame) -> Option<Task> {
    let complaint = match frame {
        WireFrame::Open { session, line } => return admit(shared, conn, session, &line),
        WireFrame::Msg { session, .. }
        | WireFrame::MpMsg { session, .. }
        | WireFrame::MpOut { session, .. } => WireFrame::Error {
            session,
            message: format!("unknown session id {session}"),
        },
        // Frames only a server sends, arriving at the server: a peer
        // bug. Answer with an error so the client can diagnose.
        WireFrame::Accept { session, .. }
        | WireFrame::Done { session, .. }
        | WireFrame::MpDone { session, .. } => WireFrame::Error {
            session,
            message: "unexpected server-role frame".into(),
        },
        // A fin or an error report for a session that already completed
        // and removed itself is a benign race; a client's farewell needs
        // no action — the stream's EOF ends the connection.
        WireFrame::Fin { .. } | WireFrame::Error { .. } | WireFrame::Goodbye => return None,
    };
    let _ = conn.send(&complaint, false);
    None
}

/// A parsed Open: the party-count tag on the request line is what
/// switches it from the two-party path to a server-hosted mesh.
enum Admitted {
    Pair(SessionRequest),
    Mesh(MultipartyRequest),
}

/// One reserved session slot, released when the session's body has run —
/// or is dropped unrun, with the connection it was read from.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
        metrics::session_closed();
    }
}

/// Admits one Open: parses the request line, opens the session's inbox,
/// reserves one session slot (a whole mesh counts as one session),
/// resolves the plan, buffers the Accept — it rides with the session's
/// first reply — and returns the session's body. A refused Open is
/// answered with an error frame instead.
fn admit(shared: &Arc<Shared>, conn: &Arc<Conn>, session: u64, line: &str) -> Option<Task> {
    let refuse = |message: String| {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        metrics::session_rejected();
        obs::flight::record(obs::flight::CODE_REJECT, session, 0, 0);
        let _ = conn.send(&WireFrame::Error { session, message }, false);
        None
    };
    if shared.draining.load(Ordering::Acquire) {
        return refuse("server is draining".into());
    }
    let parsed = if is_multiparty_line(line) {
        MultipartyRequest::parse_line(line).map(|req| req.map(Admitted::Mesh))
    } else {
        SessionRequest::parse_line(line).map(|req| req.map(Admitted::Pair))
    };
    let admitted = match parsed {
        Ok(Some(admitted)) => admitted,
        Ok(None) => return refuse("empty request line".into()),
        Err(e) => return refuse(format!("bad request: {e}")),
    };
    if !conn.register(session, 0) {
        return refuse("session id already open".into());
    }
    // Reserve a slot; opens beyond the cap are refused rather than
    // queued so the client sees backpressure explicitly.
    let reserved = shared
        .active
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |a| {
            (a < shared.max_active as u64).then_some(a + 1)
        })
        .is_ok();
    if !reserved {
        conn.unregister(session);
        return refuse("server at session capacity".into());
    }
    metrics::session_opened();
    let slot = Slot(Arc::clone(shared));
    let (protocol, body): (String, Task) = match admitted {
        Admitted::Pair(req) => {
            let choice = route(&req, shared.policy);
            // A stream-tagged open (`pair=`/`stream=` on the request
            // line) goes through the pair-context cache, so remote
            // streams share the pair's offline randomness state and its
            // hit rate shows up on `/metrics`.
            let plan = match req.pair {
                Some(pair) if req.stream.is_some() => {
                    let ctx =
                        shared
                            .pair_contexts
                            .get_or_create(pair, choice, req.spec, &shared.cache);
                    Arc::clone(ctx.plan())
                }
                _ => shared.cache.get_or_prepare(choice, req.spec),
            };
            (
                choice.to_string(),
                Box::new(move |conn| run_session(session, req, plan, conn, &slot.0)),
            )
        }
        Admitted::Mesh(req) => {
            // Warm the generation-tagged tournament plan cache: repeated
            // opens of the same (protocol, spec, m) shape hit the cached
            // plan exactly like engine-hosted sessions do.
            let _plan = shared
                .cache
                .get_or_tournament(req.choice, req.spec, req.players);
            (
                req.choice.to_string(),
                Box::new(move |conn| run_multiparty_session(session, req, conn, &slot.0)),
            )
        }
    };
    let _ = conn.send(&WireFrame::Accept { session, protocol }, false);
    Some(body)
}

/// Retires a session that ran (either kind): its last frames go out
/// before its body returns and releases its [`Slot`], so a drain never
/// outruns them.
fn retire(session: u64, conn: &Arc<Conn>) {
    conn.unregister(session);
    conn.flush();
}

/// `true` iff an Open request line carries the multiparty tag — the
/// `players=`/`mp=` keys only [`MultipartyRequest`] lines use.
fn is_multiparty_line(line: &str) -> bool {
    line.split_whitespace()
        .any(|token| matches!(token.split_once('='), Some(("players" | "mp", _))))
}

/// Hosts one remote m-party session: builds the mesh, runs the m−1
/// local player halves with inputs regenerated from the request, proxies
/// the remotely driven player over the wire, and answers with the folded
/// [`WireFrame::MpDone`] outcome (or an error frame).
fn run_multiparty_session(session: u64, req: MultipartyRequest, conn: &Arc<Conn>, shared: &Shared) {
    let _session_scope = obs::phase::SessionScope::enter(req.id, obs::Party::Bob);
    let span = obs::phase::span("net", "mp-session");
    let driven = req.player.unwrap_or(0);
    let sets = req.player_sets();
    let mut links = LinkSet::new(req.players, req.seed, shared.timeout);
    let outcome = links.run(|pctx| {
        if pctx.id() == driven {
            proxy_remote_player(pctx, session, conn, shared.timeout)
        } else {
            req.choice
                .run_player(req.spec, req.tree_rounds, pctx, &sets[pctx.id()])
        }
    });
    match outcome {
        Ok(net) => {
            span.finish(obs::CostDelta {
                bits_sent: net.report.total_bits(),
                bits_received: net.report.total_bits(),
                rounds: net.report.rounds,
            });
            shared.served.fetch_add(1, Ordering::Relaxed);
            obs::flight::record(
                obs::flight::CODE_COMPLETE,
                req.id,
                net.report.total_bits(),
                net.report.rounds,
            );
            if obs::enabled() {
                let m = req.players.to_string();
                obs::counter_add(
                    &obs::metrics::labeled("multiparty_sessions_total", &[("m", &m)]),
                    1,
                );
                obs::counter_add("multiparty_bits_total", net.report.total_bits());
                // Pooled per-player summary, matching the engine's
                // family shape: one observation per player per session
                // keeps the cardinality bounded at any m.
                for (sent, received) in net.report.bits_sent.iter().zip(&net.report.bits_received) {
                    obs::observe("multiparty_player_bits", sent + received);
                }
            }
            let mut holder = None;
            let mut result = Vec::new();
            let mut verdicts = Vec::with_capacity(req.players);
            for (i, out) in net.outputs.iter().enumerate() {
                if holder.is_none() {
                    if let Some(set) = &out.intersection {
                        holder = Some(i as u32);
                        result = set.as_slice().to_vec();
                    }
                }
                verdicts.push(out.verdict);
            }
            let _ = conn.send(
                &WireFrame::MpDone {
                    session,
                    holder,
                    result,
                    verdicts,
                    report: net.report,
                },
                false,
            );
        }
        Err(e) => {
            span.finish(obs::CostDelta::default());
            shared.failed.fetch_add(1, Ordering::Relaxed);
            obs::flight::record(obs::flight::CODE_FAIL, req.id, 0, 0);
            let _ = conn.send(
                &WireFrame::Error {
                    session,
                    message: e.to_string(),
                },
                false,
            );
        }
    }
    retire(session, conn);
}

/// Represents the remotely driven player inside the server-hosted mesh.
///
/// Every pairwise link of the driven player is split into raw halves:
/// forwarder threads shuttle mesh→wire traffic as [`WireFrame::MpMsg`]
/// frames (depths stamped by the in-process senders, forwarded
/// verbatim), while this thread pumps wire→mesh traffic into the
/// matching [`LinkSender`] halves. The halves meter the driven player's
/// shared counters exactly like attached links, and the receiver
/// halves' folded depths merge back into the player clock at the end —
/// which is what makes the hosted session's [`NetworkReport`]
/// bit-identical to an all-local run (`split_halves_meter_like_whole_link`
/// in `intersect-comm` pins the substrate half of that argument).
fn proxy_remote_player(
    ctx: &mut PlayerCtx,
    session: u64,
    conn: &Arc<Conn>,
    timeout: Duration,
) -> Result<PlayerOutput, ProtocolError> {
    let m = ctx.players();
    let driven = ctx.id();
    let stop = AtomicBool::new(false);
    let mut senders: Vec<Option<LinkSender>> = (0..m).map(|_| None).collect();
    let mut receivers = Vec::with_capacity(m.saturating_sub(1));
    for peer in (0..m).filter(|&p| p != driven) {
        let (tx_half, rx_half) = ctx.take_link(peer).split();
        senders[peer] = Some(tx_half);
        receivers.push((peer, rx_half));
    }
    let (mut result, receivers) = std::thread::scope(|scope| {
        let forwarders: Vec<_> = receivers
            .into_iter()
            .map(|(peer, mut rx_half)| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut failure = None;
                    loop {
                        match rx_half.recv_raw(Duration::from_millis(5)) {
                            Ok(Some((depth, payload))) => {
                                let frame = WireFrame::MpMsg {
                                    session,
                                    peer: peer as u32,
                                    depth,
                                    payload,
                                };
                                if let Err(e) = conn.send(&frame, true) {
                                    failure = Some(e);
                                    break;
                                }
                            }
                            // recv_raw polls: Ok(None) is just "nothing
                            // yet" — keep draining until told to stop.
                            Ok(None) => {
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                            }
                            Err(e) => {
                                if !stop.load(Ordering::Acquire) {
                                    failure = Some(e);
                                }
                                break;
                            }
                        }
                    }
                    (rx_half, failure)
                })
            })
            .collect();

        // Pump wire→mesh traffic until the driven player's output (or a
        // failure) arrives.
        let result = loop {
            match conn.wait((session, 0), deadline_after(timeout)) {
                Ok(WireFrame::MpMsg {
                    peer,
                    depth,
                    payload,
                    ..
                }) => match senders.get(peer as usize).and_then(Option::as_ref) {
                    Some(tx) => {
                        if let Err(e) = tx.send_raw(depth, payload) {
                            break Err(e);
                        }
                    }
                    None => {
                        break Err(ProtocolError::Internal(format!(
                            "message addressed to invalid peer {peer}"
                        )))
                    }
                },
                Ok(WireFrame::MpOut {
                    intersection,
                    verdict,
                    ..
                }) => {
                    break Ok(PlayerOutput {
                        intersection: intersection.map(ElementSet::from_sorted),
                        verdict,
                    })
                }
                Ok(WireFrame::Error { message, .. }) => {
                    break Err(ProtocolError::Internal(format!(
                        "remote player failed: {message}"
                    )))
                }
                Ok(WireFrame::Fin { .. }) => break Err(ProtocolError::ChannelClosed),
                Ok(_) => {
                    break Err(ProtocolError::Internal(
                        "unexpected frame in multiparty session".into(),
                    ))
                }
                Err(e) => break Err(e),
            }
        };
        stop.store(true, Ordering::Release);
        let halves: Vec<_> = forwarders
            .into_iter()
            .map(|h| h.join().expect("forwarder panicked"))
            .collect();
        (result, halves)
    });
    // Merge the receiver halves' folded causal depths back into the
    // player clock, exactly as `return_link` would for an attached link.
    for (rx_half, failure) in receivers {
        ctx.fold_clock(rx_half.clock());
        if result.is_ok() {
            if let Some(e) = failure {
                result = Err(e);
            }
        }
    }
    result
}

fn run_session(
    session: u64,
    req: SessionRequest,
    plan: Arc<dyn PreparedProtocol>,
    conn: &Arc<Conn>,
    shared: &Shared,
) {
    // The trace context rides the Open frame's request line; an untagged
    // line falls back to the same deterministic mint the client (or the
    // engine) would perform, so both halves land in one trace either way.
    let trace = req.trace_context();
    let _session_scope = obs::phase::SessionScope::enter(req.id, obs::Party::Bob);
    let _trace_scope = obs::TraceScope::enter(trace);
    let span = obs::phase::span("net", "session");
    let pair = req.input_pair();
    // `coin_seed`, not `seed`: a stream-tagged remote session must share
    // the pair-derived common random string with its client half and
    // with any standalone audit rerun.
    let coins = CoinSource::from_seed(req.coin_seed());
    let mut chan = RemoteChan::new(Arc::clone(conn), session, shared.timeout, None, None);
    let result = plan.execute(&mut chan, &coins, Side::Bob, &pair.t);
    let stats = chan.stats();
    span.finish(obs::CostDelta {
        bits_sent: stats.bits_sent,
        bits_received: stats.bits_received,
        rounds: stats.clock,
    });
    match result {
        Ok(out) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            obs::flight::record(
                obs::flight::CODE_COMPLETE,
                req.id,
                stats.bits_sent + stats.bits_received,
                stats.clock,
            );
            // Fin first (the half is over, mirroring the in-process
            // endpoint's fin-on-drop), then the counters and result;
            // both leave in the one write `retire` flushes.
            let _ = conn.send(&WireFrame::Fin { session }, false);
            let _ = conn.send(
                &WireFrame::Done {
                    session,
                    stats,
                    result: out.as_slice().to_vec(),
                },
                false,
            );
        }
        Err(e) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            obs::flight::record(
                obs::flight::CODE_FAIL,
                req.id,
                stats.bits_sent + stats.bits_received,
                stats.clock,
            );
            let _ = conn.send(
                &WireFrame::Error {
                    session,
                    message: e.to_string(),
                },
                false,
            );
        }
    }
    retire(session, conn);
}
