//! The remote client: the in-process session API over a socket.
//!
//! A [`NetClient`] owns one connection and multiplexes any number of
//! concurrent sessions onto it — [`NetClient::run`] takes `&self`, so
//! wrapping the client in an [`Arc`] and calling it from many threads
//! drives many interleaved sessions over a single stream. It has no
//! thread of its own: the calling threads read the socket themselves
//! (`crate::mux`: whichever waits first reads for all). The client
//! executes the Alice half of the routed protocol locally over a
//! [`RemoteChan`], regenerating the session's inputs from the request
//! seed exactly as the server does, and assembles the final
//! [`CostReport`] from its own counters plus the server's
//! [`WireFrame::Done`] counters with the same `assemble_report` the
//! in-process runner uses — which is what makes remote reports
//! bit-identical to local ones (experiment E21).

use crate::chan::{await_accept, RemoteChan};
use crate::frame::WireFrame;
use crate::metrics;
use crate::mux::{deadline_after, Conn, Key};
use crate::transport::{EndpointAddr, Stream};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::net::{ClockedChan, PartyCtx, SyncedLink};
use intersect_comm::runner::{assemble_report, Side};
use intersect_comm::stats::{ChannelStats, CostReport, NetworkReport};
use intersect_comm::trace::{TraceEvent, Traced};
use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ElementSet;
use intersect_engine::{MultipartyRequest, PlanCache, SessionRequest};
use intersect_multiparty::choice::{MultipartyChoice, PlayerOutput};
use intersect_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one remote session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRun {
    /// The protocol the server routed the session to.
    pub protocol: ProtocolChoice,
    /// This side's (Alice's) output.
    pub alice: ElementSet,
    /// The server side's (Bob's) output, echoed in the Done frame.
    pub bob: ElementSet,
    /// Exact communication cost, assembled from both endpoints'
    /// counters exactly as the in-process runner assembles it.
    pub report: CostReport,
}

impl RemoteRun {
    /// `true` iff both parties produced exactly `expected`.
    pub fn matches(&self, expected: &ElementSet) -> bool {
        self.alice == *expected && self.bob == *expected
    }
}

/// The outcome of one remote m-party session: the driven player's own
/// output plus the server's folded view of the whole mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteMultipartyRun {
    /// The protocol the session ran.
    pub choice: MultipartyChoice,
    /// The player index this client drove.
    pub player: usize,
    /// The driven player's locally computed output.
    pub output: PlayerOutput,
    /// The player left holding the intersection, if any.
    pub holder: Option<usize>,
    /// The holder's computed global intersection (intersection
    /// protocols only).
    pub result: Option<ElementSet>,
    /// Per-player disjointness verdicts (decision protocols only).
    pub verdicts: Vec<Option<bool>>,
    /// Exact per-player communication and round accounting, identical
    /// to an all-local `LinkSet` run of the same request.
    pub report: NetworkReport,
}

impl RemoteMultipartyRun {
    /// `true` iff the session's outcome agrees with `truth` — the holder
    /// produced exactly `truth`, or every verdict matched its emptiness.
    pub fn matches(&self, truth: &ElementSet) -> bool {
        match self.choice {
            MultipartyChoice::Disjointness => {
                !self.verdicts.is_empty()
                    && self.verdicts.iter().all(|v| *v == Some(truth.is_empty()))
            }
            _ => self.result.as_ref() == Some(truth),
        }
    }
}

/// A remote session's client-side latency waterfall: wall clock from
/// encoding the Open frame to assembling the final report, decomposed
/// into segments that tile the span (up to 1µs truncation per segment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTimeline {
    /// Open encoded → protocol known. For an unpinned request that is the
    /// server's Accept (routing + handshake round trip); a request that
    /// pins its protocol does not wait, so this is ≈ 0 and its Accept is
    /// consumed inside `rounds-execute`, ahead of the first reply.
    pub open_wait_micros: u64,
    /// Protocol known → this half's protocol rounds finished (plan
    /// resolution, input regeneration, and the rounds themselves).
    pub rounds_execute_micros: u64,
    /// Rounds finished → server's Done counters received and the report
    /// assembled.
    pub drain_micros: u64,
}

impl ClientTimeline {
    /// The waterfall as `(segment, micros)` rows.
    pub fn segments(&self) -> [(&'static str, u64); 3] {
        [
            ("open-wait", self.open_wait_micros),
            ("rounds-execute", self.rounds_execute_micros),
            ("drain", self.drain_micros),
        ]
    }

    /// Sum of all segments: the Open-to-report span.
    pub fn total_micros(&self) -> u64 {
        self.open_wait_micros + self.rounds_execute_micros + self.drain_micros
    }
}

/// One connection to a transport server.
#[derive(Debug)]
pub struct NetClient {
    conn: Arc<Conn>,
    next_id: AtomicU64,
    cache: PlanCache,
    timeout: Duration,
}

impl NetClient {
    /// Connects to `tcp:ADDR` or `unix:PATH`.
    ///
    /// # Errors
    ///
    /// Rejects malformed endpoint syntax and propagates connect errors.
    pub fn connect(endpoint: &str) -> Result<NetClient, String> {
        let addr = EndpointAddr::parse(endpoint)?;
        Self::connect_addr(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
    }

    /// Connects to an already-parsed endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_addr(addr: &EndpointAddr) -> std::io::Result<NetClient> {
        metrics::describe_net_metrics();
        let timeout = Duration::from_secs(30);
        // The only frame a client receives outside its sessions' inboxes
        // and acts on is a connection-level error: every live session is
        // affected. (Replies to sessions that already gave up are dropped.)
        let conn = Conn::new(
            Stream::connect(addr)?,
            timeout,
            Box::new(|conn, frame| {
                if let WireFrame::Error {
                    session: 0,
                    message,
                } = frame
                {
                    conn.broadcast_error(&message);
                }
                None
            }),
        )?;
        metrics::connection_delta(1);
        Ok(NetClient {
            conn,
            next_id: AtomicU64::new(1),
            cache: PlanCache::new(),
            timeout,
        })
    }

    /// `true` once the server has said goodbye (drain in progress).
    pub fn server_said_goodbye(&self) -> bool {
        // No thread reads in the background: look at what has arrived.
        self.conn.poll();
        self.conn.said_goodbye()
    }

    /// Runs one session remotely, blocking this thread until it
    /// completes. Safe to call concurrently from many threads: sessions
    /// interleave on the shared connection.
    ///
    /// # Errors
    ///
    /// Surfaces request validation failures as
    /// [`ProtocolError::InvalidInput`], server-side refusals and
    /// failures as [`ProtocolError::Internal`], and transport loss as
    /// [`ProtocolError::ChannelClosed`] / [`ProtocolError::Timeout`].
    pub fn run(&self, req: &SessionRequest) -> Result<RemoteRun, ProtocolError> {
        self.run_inner(req, false).map(|(run, _, _)| run)
    }

    /// Like [`run`](Self::run), but also returns the session's
    /// client-side [`ClientTimeline`] — the per-segment latency waterfall
    /// `loadgen --json` aggregates into its attribution table.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_timed(
        &self,
        req: &SessionRequest,
    ) -> Result<(RemoteRun, ClientTimeline), ProtocolError> {
        self.run_inner(req, false)
            .map(|(run, _, timeline)| (run, timeline))
    }

    /// Like [`run`](Self::run), but also records the client-side message
    /// transcript (direction, bits, causal clock, phase label of every
    /// message) — the evidence E21 compares against in-process runs.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_traced(
        &self,
        req: &SessionRequest,
    ) -> Result<(RemoteRun, Vec<TraceEvent>), ProtocolError> {
        self.run_inner(req, true)
            .map(|(run, events, _)| (run, events))
    }

    fn run_inner(
        &self,
        req: &SessionRequest,
        traced: bool,
    ) -> Result<(RemoteRun, Vec<TraceEvent>, ClientTimeline), ProtocolError> {
        req.validate().map_err(ProtocolError::InvalidInput)?;
        // Mint the distributed trace context before the request line hits
        // the wire, so the server's Bob half joins the same trace. The
        // mint is the same pure `(id, seed)` function the engine uses.
        let mut req = req.clone();
        if req.trace.is_none() {
            req.trace = Some(req.trace_context());
            obs::counter_add("trace_contexts_minted_total", 1);
        }
        self.registered(0, |wire_id| self.run_registered(&req, wire_id, traced))
    }

    /// Runs `session` under a fresh wire id with its inbox open. A
    /// session that fails flushes what it left in the write buffer (its
    /// Fin or error report), so the server half is released at once; one
    /// that completed has the server's outcome already, and its Fin rides
    /// with the connection's next write.
    fn registered<T>(
        &self,
        lanes: u32,
        session: impl FnOnce(u64) -> Result<T, ProtocolError>,
    ) -> Result<T, ProtocolError> {
        let wire_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.conn.register(wire_id, lanes);
        metrics::session_opened();
        let result = session(wire_id);
        self.conn.unregister(wire_id);
        if result.is_err() {
            self.conn.flush();
        }
        metrics::session_closed();
        result
    }

    fn run_registered(
        &self,
        req: &SessionRequest,
        wire_id: u64,
        traced: bool,
    ) -> Result<(RemoteRun, Vec<TraceEvent>, ClientTimeline), ProtocolError> {
        let opened_at = Instant::now();
        // A control frame: it leaves with this half's first message, or
        // when this thread first blocks.
        self.conn.send(
            &WireFrame::Open {
                session: wire_id,
                line: req.to_line(),
            },
            false,
        )?;
        let mut chan = RemoteChan::new(
            Arc::clone(&self.conn),
            wire_id,
            self.timeout,
            None,
            req.protocol.map(|pin| pin.to_string()),
        );
        // The server routes a request that pins its protocol to exactly
        // that protocol, so a pinned open goes ahead and lets the channel
        // check the Accept when it reads it. Otherwise the handshake: the
        // server answers with the routed protocol before its half sends
        // any message.
        let choice: ProtocolChoice = match req.protocol {
            Some(pin) => pin,
            None => await_accept(&self.conn, wire_id, self.timeout)?
                .parse()
                .map_err(|e: String| ProtocolError::Internal(format!("bad accept: {e}")))?,
        };

        let accepted_at = Instant::now();

        let plan = self.cache.get_or_prepare(choice, req.spec);
        let pair = req.input_pair();
        // `coin_seed`, not `seed`: for a stream-tagged request both
        // halves derive the pair's shared randomness from the same pure
        // `stream_session_seed(pair, stream)`.
        let coins = CoinSource::from_seed(req.coin_seed());

        // Alice's half carries the session's scopes: every span and
        // message it emits is attributed to the session and stitched
        // into the same trace the server's Bob half joins.
        let (alice, events) = {
            let _session_scope = obs::phase::SessionScope::enter(req.id, obs::Party::Alice);
            let _trace_scope = req.trace.map(obs::TraceScope::enter);
            let span = obs::phase::span("net", "session");
            let (alice, events) = if traced {
                let mut tchan = Traced::new(&mut chan);
                let out = plan.execute(&mut tchan, &coins, Side::Alice, &pair.s);
                let events = tchan.into_events();
                (out, events)
            } else {
                (
                    plan.execute(&mut chan, &coins, Side::Alice, &pair.s),
                    Vec::new(),
                )
            };
            let stats = chan.stats();
            span.finish(obs::CostDelta {
                bits_sent: stats.bits_sent,
                bits_received: stats.bits_received,
                rounds: stats.clock,
            });
            (alice, events)
        };

        // Announce this half's end whether it succeeded or not, so the
        // server side can release the session promptly.
        let _ = self.conn.send(&WireFrame::Fin { session: wire_id }, false);
        let executed_at = Instant::now();
        let alice = alice?;

        let (server_stats, result) = chan.wait_done()?;
        let report = assemble_report(chan.stats(), server_stats);
        let span = |a: Instant, b: Instant| b.saturating_duration_since(a).as_micros() as u64;
        let timeline = ClientTimeline {
            open_wait_micros: span(opened_at, accepted_at),
            rounds_execute_micros: span(accepted_at, executed_at),
            drain_micros: span(executed_at, Instant::now()),
        };
        if obs::enabled() {
            for (segment, micros) in timeline.segments() {
                obs::observe(
                    &obs::metrics::labeled("net_client_segment_micros", &[("segment", segment)]),
                    micros,
                );
            }
        }
        Ok((
            RemoteRun {
                protocol: choice,
                alice,
                bob: ElementSet::from_sorted(result),
                report,
            },
            events,
            timeline,
        ))
    }

    /// Runs one m-party session with this client driving player
    /// `req.player` (player 0 if unset) while the server hosts the other
    /// `m − 1` players on an in-process mesh. Blocks until the whole
    /// session completes; safe to call concurrently — multiparty and
    /// two-party sessions interleave on the shared connection.
    ///
    /// # Errors
    ///
    /// Surfaces request validation failures as
    /// [`ProtocolError::InvalidInput`], server-side refusals and
    /// failures as [`ProtocolError::Internal`], and transport loss as
    /// [`ProtocolError::ChannelClosed`] / [`ProtocolError::Timeout`].
    pub fn run_multiparty(
        &self,
        req: &MultipartyRequest,
    ) -> Result<RemoteMultipartyRun, ProtocolError> {
        req.validate().map_err(ProtocolError::InvalidInput)?;
        let mut req = req.clone();
        let driven = req.player.unwrap_or(0);
        req.player = Some(driven);
        // One inbox lane per pairwise link on top of lane 0.
        self.registered(req.players as u32, |wire_id| {
            self.run_multiparty_registered(&req, driven, wire_id)
        })
    }

    fn run_multiparty_registered(
        &self,
        req: &MultipartyRequest,
        driven: usize,
        wire_id: u64,
    ) -> Result<RemoteMultipartyRun, ProtocolError> {
        self.conn.send(
            &WireFrame::Open {
                session: wire_id,
                line: req.to_line(),
            },
            false,
        )?;

        // The open handshake: the server echoes the multiparty protocol
        // before any mesh traffic flows.
        let choice: MultipartyChoice = await_accept(&self.conn, wire_id, self.timeout)?
            .parse()
            .map_err(|e: String| ProtocolError::Internal(format!("bad accept: {e}")))?;
        if choice != req.choice {
            return Err(ProtocolError::Internal(format!(
                "server accepted {choice}, requested {}",
                req.choice
            )));
        }

        // Each pairwise link (which protocols may detach onto worker
        // threads) waits on its own lane for its peer's payloads; lane 0
        // keeps the terminal outcome.
        let links = (0..req.players)
            .map(|peer| {
                (peer != driven).then(|| RemoteLink {
                    conn: Arc::clone(&self.conn),
                    key: (wire_id, peer as u32 + 1),
                    clock: 0,
                    stats: ChannelStats::default(),
                    timeout: self.timeout,
                })
            })
            .collect();

        // The driven player's half, over the same PartyCtx abstraction
        // the in-process mesh implements — same clock discipline, same
        // metering, same coins.
        let sets = req.player_sets();
        let mut ctx = RemotePartyCtx {
            id: driven,
            players: req.players,
            coins: CoinSource::from_seed(req.seed),
            links,
            clock: 0,
        };
        let local = {
            let _session_scope = obs::phase::SessionScope::enter(req.id, obs::Party::Alice);
            let span = obs::phase::span("net", "mp-session");
            let local = choice.run_player(req.spec, req.tree_rounds, &mut ctx, &sets[driven]);
            let stats = ctx.stats();
            span.finish(obs::CostDelta {
                bits_sent: stats.bits_sent,
                bits_received: stats.bits_received,
                rounds: stats.clock,
            });
            local
        };

        // Hand the output (or the failure) to the server-side proxy so
        // the mesh can finish and fold the session.
        let output = match local {
            Ok(out) => {
                self.conn.send(
                    &WireFrame::MpOut {
                        session: wire_id,
                        intersection: out.intersection.as_ref().map(|s| s.as_slice().to_vec()),
                        verdict: out.verdict,
                    },
                    false,
                )?;
                out
            }
            Err(e) => {
                let _ = self.conn.send(
                    &WireFrame::Error {
                        session: wire_id,
                        message: e.to_string(),
                    },
                    false,
                );
                return Err(e);
            }
        };

        // Await the folded session outcome.
        loop {
            match self.conn.wait((wire_id, 0), deadline_after(self.timeout))? {
                WireFrame::MpDone {
                    holder,
                    result,
                    verdicts,
                    report,
                    ..
                } => {
                    return Ok(RemoteMultipartyRun {
                        choice,
                        player: driven,
                        output,
                        holder: holder.map(|h| h as usize),
                        result: holder.map(|_| ElementSet::from_sorted(result)),
                        verdicts,
                        report,
                    })
                }
                WireFrame::Error { message, .. } => {
                    return Err(ProtocolError::Internal(format!(
                        "remote session failed: {message}"
                    )))
                }
                // Fins and stray frames carry no outcome.
                _ => continue,
            }
        }
    }

    /// Tells the server this client will open no further sessions.
    pub fn goodbye(&self) {
        let _ = self.conn.send(&WireFrame::Goodbye, true);
    }
}

/// One pairwise link of a remotely driven mesh player: the m-party
/// analogue of [`RemoteChan`]. Meters exactly what the in-process
/// [`Link`](intersect_comm::net::Link) meters — payload bits and message
/// counts, causal depth stamped `clock + 1` on send, folded with `max`
/// on receive — and carries the peer tag that routes the frame onto the
/// right link of the server-hosted mesh.
#[derive(Debug)]
struct RemoteLink {
    conn: Arc<Conn>,
    /// The link's inbox lane: `(session, peer + 1)`.
    key: Key,
    clock: u64,
    stats: ChannelStats,
    timeout: Duration,
}

impl Chan for RemoteLink {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        let bits = msg.len() as u64;
        self.stats.bits_sent += bits;
        self.stats.messages_sent += 1;
        let frame = WireFrame::MpMsg {
            session: self.key.0,
            peer: self.key.1 - 1,
            depth: self.clock + 1,
            payload: msg,
        };
        self.conn.send(&frame, true)?;
        obs::message("net", obs::Direction::Sent, bits, self.clock);
        Ok(())
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        let (depth, payload) = match self.conn.wait(self.key, deadline_after(self.timeout))? {
            WireFrame::MpMsg { depth, payload, .. } => (depth, payload),
            WireFrame::Error { message, .. } => {
                return Err(ProtocolError::Internal(format!(
                    "remote session failed: {message}"
                )))
            }
            // Only this peer's payloads and the session's failure are
            // routed to a link's lane.
            _ => return Err(ProtocolError::ChannelClosed),
        };
        self.clock = self.clock.max(depth);
        self.stats.clock = self.clock;
        let bits = payload.len() as u64;
        self.stats.bits_received += bits;
        self.stats.messages_received += 1;
        obs::message("net", obs::Direction::Received, bits, self.stats.clock);
        Ok(payload)
    }

    fn stats(&self) -> ChannelStats {
        let mut s = self.stats;
        s.clock = self.clock;
        s
    }
}

impl ClockedChan for RemoteLink {
    fn link_clock(&self) -> u64 {
        self.clock
    }

    fn fold_clock(&mut self, depth: u64) {
        self.clock = self.clock.max(depth);
        self.stats.clock = self.clock;
    }
}

/// The remotely driven player's view of the mesh: implements
/// [`PartyCtx`] with the exact clock discipline of the in-process
/// [`PlayerCtx`](intersect_comm::net::PlayerCtx) — `take_link` seeds the
/// link clock from the player clock, `return_link` merges it back — so
/// the Section 4 protocols run over the wire unchanged and
/// bit-identically.
struct RemotePartyCtx {
    id: usize,
    players: usize,
    coins: CoinSource,
    links: Vec<Option<RemoteLink>>,
    clock: u64,
}

impl RemotePartyCtx {
    /// Aggregate counters over every pairwise link, with the causal
    /// clock folded across attached links like `PlayerCtx::stats`.
    fn stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for link in self.links.iter().flatten() {
            total.bits_sent += link.stats.bits_sent;
            total.bits_received += link.stats.bits_received;
            total.messages_sent += link.stats.messages_sent;
            total.messages_received += link.stats.messages_received;
            total.clock = total.clock.max(link.clock);
        }
        total.clock = total.clock.max(self.clock);
        total
    }
}

impl PartyCtx for RemotePartyCtx {
    type Link = RemoteLink;

    fn id(&self) -> usize {
        self.id
    }

    fn players(&self) -> usize {
        self.players
    }

    fn coins(&self) -> &CoinSource {
        &self.coins
    }

    fn take_link(&mut self, peer: usize) -> RemoteLink {
        assert!(peer < self.players, "peer {peer} out of range");
        assert_ne!(peer, self.id, "no link to self");
        let mut link = self.links[peer]
            .take()
            .unwrap_or_else(|| panic!("link to {peer} already taken"));
        link.fold_clock(self.clock);
        link
    }

    fn return_link(&mut self, peer: usize, link: RemoteLink) {
        assert!(peer < self.players && self.links[peer].is_none());
        self.clock = self.clock.max(link.clock);
        self.links[peer] = Some(link);
    }

    fn link(&mut self, peer: usize) -> SyncedLink<'_, RemoteLink> {
        assert!(peer < self.players, "peer {peer} out of range");
        assert_ne!(peer, self.id, "no link to self");
        let link = self.links[peer]
            .as_mut()
            .unwrap_or_else(|| panic!("link to {peer} is detached"));
        SyncedLink::new(link, &mut self.clock)
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.conn.shutdown();
        metrics::connection_delta(-1);
    }
}
