//! The message-passing model for `m` players.
//!
//! Matches the model of Section 4 of the paper (and \[BEO+13\]): any player
//! may send a private message to any other player; we meter per-player bits
//! and measure rounds as the longest causal chain of messages (see
//! [`crate::stats`]).
//!
//! Every ordered pair of players is connected by a dedicated [`Link`],
//! which implements [`Chan`] so two-party protocols run unchanged inside
//! the network. Links can be *detached* from a player's context
//! ([`PlayerCtx::take_link`]) and driven from worker threads, so a
//! coordinator can run many pairwise protocols concurrently — exactly what
//! Corollary 4.1 needs for its `O(r·max(1, log(m/k)))` round bound. Each
//! link carries its own causal clock, seeded from the player clock at
//! detach time and merged back at [`PlayerCtx::return_link`], so parallel
//! sub-protocols count as parallel rounds while sequential dependencies
//! still add up.

use crate::bits::BitBuf;
use crate::chan::Chan;
use crate::coins::CoinSource;
use crate::error::ProtocolError;
use crate::runner::contained_error;
use crate::stats::{ChannelStats, NetworkReport};
use crossbeam_channel::{Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
struct NetFrame {
    depth: u64,
    payload: BitBuf,
}

/// Shared per-player traffic counters (updated from detached links too).
#[derive(Debug, Default)]
struct PlayerCounters {
    bits_sent: AtomicU64,
    bits_received: AtomicU64,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
}

impl PlayerCounters {
    fn reset(&self) {
        self.bits_sent.store(0, Ordering::Relaxed);
        self.bits_received.store(0, Ordering::Relaxed);
        self.messages_sent.store(0, Ordering::Relaxed);
        self.messages_received.store(0, Ordering::Relaxed);
    }
}

/// Configuration for a network run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of players.
    pub players: usize,
    /// Seed of the common random string (shared by all players).
    pub seed: u64,
    /// How long a blocked receive may wait before failing the run.
    pub timeout: Duration,
}

impl NetworkConfig {
    /// A network of `players` players with the given shared seed and a
    /// 30-second receive timeout.
    pub fn new(players: usize, seed: u64) -> Self {
        NetworkConfig {
            players,
            seed,
            timeout: Duration::from_secs(30),
        }
    }
}

/// A bit-metered, causally-clocked channel between one ordered pair of
/// players. Implements [`Chan`], so any two-party protocol runs over it.
#[derive(Debug)]
pub struct Link {
    tx: Sender<NetFrame>,
    rx: Receiver<NetFrame>,
    /// This link's local causal clock.
    clock: u64,
    /// Per-link traffic (also folded into the owner's counters).
    stats: ChannelStats,
    counters: Arc<PlayerCounters>,
    timeout: Duration,
}

impl Chan for Link {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        let bits = msg.len() as u64;
        self.stats.bits_sent += bits;
        self.stats.messages_sent += 1;
        self.counters.bits_sent.fetch_add(bits, Ordering::Relaxed);
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(NetFrame {
                depth: self.clock + 1,
                payload: msg,
            })
            .map_err(|_| ProtocolError::ChannelClosed)
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        // m players per session are more threads than cores: a waiting
        // player offers its core between probes, never spins on it.
        let frame = self
            .rx
            .recv_hot(self.timeout, crossbeam_channel::Hot::Yield)
            .map_err(|e| match e {
                crossbeam_channel::RecvTimeoutError::Timeout => ProtocolError::Timeout,
                crossbeam_channel::RecvTimeoutError::Disconnected => ProtocolError::ChannelClosed,
            })?;
        self.clock = self.clock.max(frame.depth);
        self.stats.clock = self.clock;
        let bits = frame.payload.len() as u64;
        self.stats.bits_received += bits;
        self.stats.messages_received += 1;
        self.counters
            .bits_received
            .fetch_add(bits, Ordering::Relaxed);
        self.counters
            .messages_received
            .fetch_add(1, Ordering::Relaxed);
        Ok(frame.payload)
    }

    fn stats(&self) -> ChannelStats {
        let mut s = self.stats;
        s.clock = self.clock;
        s
    }
}

/// A [`Chan`] that carries an explicit causal link clock.
///
/// What [`SyncedLink`] and generic m-party contexts ([`PartyCtx`]) need
/// from a link beyond sending and receiving: read the link's clock and
/// fold an external causal dependency into it.
pub trait ClockedChan: Chan {
    /// The link's current causal clock.
    fn link_clock(&self) -> u64;

    /// Folds an external causal dependency in: `clock = max(clock, depth)`.
    fn fold_clock(&mut self, depth: u64);
}

impl ClockedChan for Link {
    fn link_clock(&self) -> u64 {
        self.clock
    }

    fn fold_clock(&mut self, depth: u64) {
        self.clock = self.clock.max(depth);
        self.stats.clock = self.clock;
    }
}

impl Link {
    /// Splits the link into raw halves so a proxy can shuttle the two
    /// directions from different threads (the transport server does this
    /// to represent a remote player inside an in-process mesh).
    ///
    /// The halves meter the shared per-player counters exactly like the
    /// joined link; the receiver half tracks the depths it folded so the
    /// proxy can merge them back into its player clock.
    pub fn split(self) -> (LinkSender, LinkReceiver) {
        (
            LinkSender {
                tx: self.tx,
                counters: Arc::clone(&self.counters),
            },
            LinkReceiver {
                rx: self.rx,
                counters: self.counters,
                clock: self.clock,
            },
        )
    }
}

/// The transmit half of a split [`Link`].
///
/// [`send_raw`](Self::send_raw) forwards a frame whose causal depth was
/// stamped elsewhere (by the remote endpoint that originated it), so it
/// meters bits and messages but never touches a clock — exactly the
/// in-process sender semantics, where sending does not advance the
/// sender's own clock.
#[derive(Debug)]
pub struct LinkSender {
    tx: Sender<NetFrame>,
    counters: Arc<PlayerCounters>,
}

impl LinkSender {
    /// Forwards one pre-stamped frame into the mesh.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ChannelClosed`] if the peer hung up.
    pub fn send_raw(&self, depth: u64, payload: BitBuf) -> Result<(), ProtocolError> {
        let bits = payload.len() as u64;
        self.counters.bits_sent.fetch_add(bits, Ordering::Relaxed);
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(NetFrame { depth, payload })
            .map_err(|_| ProtocolError::ChannelClosed)
    }
}

/// The receive half of a split [`Link`].
#[derive(Debug)]
pub struct LinkReceiver {
    rx: Receiver<NetFrame>,
    counters: Arc<PlayerCounters>,
    clock: u64,
}

impl LinkReceiver {
    /// Receives one frame with its causal depth, waiting at most
    /// `timeout`; `Ok(None)` means nothing arrived in time (the caller
    /// polls, it is not an error).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ChannelClosed`] if the sender vanished.
    pub fn recv_raw(&mut self, timeout: Duration) -> Result<Option<(u64, BitBuf)>, ProtocolError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => {
                self.clock = self.clock.max(frame.depth);
                let bits = frame.payload.len() as u64;
                self.counters
                    .bits_received
                    .fetch_add(bits, Ordering::Relaxed);
                self.counters
                    .messages_received
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Some((frame.depth, frame.payload)))
            }
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                Err(ProtocolError::ChannelClosed)
            }
        }
    }

    /// The maximum causal depth folded so far (for merging back into the
    /// owning player's clock).
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

/// A player's view of an m-party session, abstracted over the link
/// transport.
///
/// The Section-4 protocols are written against this trait, so the same
/// code runs over an in-process mesh ([`PlayerCtx`]) and over a framed
/// network transport (the `net` crate's remote party context). The
/// clock discipline is fixed by the trait contract: `take_link` seeds
/// the link clock from the player clock, `return_link` merges it back,
/// and [`SyncedLink`] keeps the two in sync for sequential use — so any
/// conforming transport produces bit- and round-identical sessions.
pub trait PartyCtx {
    /// The pairwise link type.
    type Link: ClockedChan + Send;

    /// This player's id in `0..players()`.
    fn id(&self) -> usize;

    /// Number of players in the session.
    fn players(&self) -> usize;

    /// The common random string shared by every player.
    fn coins(&self) -> &CoinSource;

    /// Detaches the link to `peer` for concurrent use; see
    /// [`PlayerCtx::take_link`].
    fn take_link(&mut self, peer: usize) -> Self::Link;

    /// Reattaches a detached link, merging its clock; see
    /// [`PlayerCtx::return_link`].
    fn return_link(&mut self, peer: usize, link: Self::Link);

    /// Borrows the link to `peer` for sequential use with player/link
    /// clocks kept in sync.
    fn link(&mut self, peer: usize) -> SyncedLink<'_, Self::Link>;

    /// Sends one message to `peer` (sequential convenience).
    ///
    /// # Errors
    ///
    /// Propagates link failures.
    fn send_to(&mut self, peer: usize, msg: BitBuf) -> Result<(), ProtocolError> {
        self.link(peer).send(msg)
    }

    /// Receives one message from `peer` (sequential convenience).
    ///
    /// # Errors
    ///
    /// Propagates link failures and timeouts.
    fn recv_from(&mut self, peer: usize) -> Result<BitBuf, ProtocolError> {
        self.link(peer).recv()
    }
}

/// A player's handle to the network: identity, coins, and per-peer links.
pub struct PlayerCtx {
    id: usize,
    players: usize,
    coins: CoinSource,
    links: Vec<Option<Link>>,
    clock: u64,
    counters: Arc<PlayerCounters>,
}

impl std::fmt::Debug for PlayerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlayerCtx(id={}/{})", self.id, self.players)
    }
}

impl PlayerCtx {
    /// This player's id in `0..players()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of players in the network.
    pub fn players(&self) -> usize {
        self.players
    }

    /// The common random string shared by every player.
    pub fn coins(&self) -> &CoinSource {
        &self.coins
    }

    /// This player's causal round clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Detaches the link to `peer` so it can be driven concurrently (e.g.
    /// from a scoped worker thread). The link starts at this player's
    /// current causal clock; fold its clock back in with
    /// [`return_link`](Self::return_link).
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range, equal to `self.id()`, or its link
    /// was already taken.
    pub fn take_link(&mut self, peer: usize) -> Link {
        assert!(peer < self.players, "peer {peer} out of range");
        assert_ne!(peer, self.id, "no link to self");
        let mut link = self.links[peer]
            .take()
            .unwrap_or_else(|| panic!("link to {peer} already taken"));
        link.clock = link.clock.max(self.clock);
        link
    }

    /// Reattaches a link taken with [`take_link`](Self::take_link), merging
    /// its causal clock into the player clock (a join point: everything the
    /// player does next causally depends on that sub-protocol).
    pub fn return_link(&mut self, peer: usize, link: Link) {
        assert!(peer < self.players && self.links[peer].is_none());
        self.clock = self.clock.max(link.clock);
        self.links[peer] = Some(link);
    }

    /// Borrows the link to `peer` for sequential use; the player clock and
    /// link clock are kept in sync.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is invalid or the link is currently taken.
    pub fn link(&mut self, peer: usize) -> SyncedLink<'_> {
        assert!(peer < self.players, "peer {peer} out of range");
        assert_ne!(peer, self.id, "no link to self");
        let link = self.links[peer]
            .as_mut()
            .unwrap_or_else(|| panic!("link to {peer} is detached"));
        link.clock = link.clock.max(self.clock);
        SyncedLink {
            link,
            player_clock: &mut self.clock,
        }
    }

    /// Sends one message to `peer` (sequential convenience).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ChannelClosed`] if `peer` already finished.
    pub fn send_to(&mut self, peer: usize, msg: BitBuf) -> Result<(), ProtocolError> {
        self.link(peer).send(msg)
    }

    /// Receives one message from `peer` (sequential convenience).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Timeout`] / [`ProtocolError::ChannelClosed`]
    /// like [`Link::recv`].
    pub fn recv_from(&mut self, peer: usize) -> Result<BitBuf, ProtocolError> {
        self.link(peer).recv()
    }

    /// Folds an external causal dependency into the player clock (used
    /// when a sub-protocol's clocks were tracked out-of-band, e.g. by
    /// split link halves).
    pub fn fold_clock(&mut self, depth: u64) {
        self.clock = self.clock.max(depth);
    }

    /// Snapshot of this player's aggregate counters.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            bits_sent: self.counters.bits_sent.load(Ordering::Relaxed),
            bits_received: self.counters.bits_received.load(Ordering::Relaxed),
            messages_sent: self.counters.messages_sent.load(Ordering::Relaxed),
            messages_received: self.counters.messages_received.load(Ordering::Relaxed),
            clock: self.current_clock(),
        }
    }

    fn current_clock(&self) -> u64 {
        // Max over the player clock and any attached link clocks (detached
        // links report through return_link).
        self.links
            .iter()
            .flatten()
            .map(|l| l.clock)
            .chain([self.clock])
            .max()
            .unwrap_or(0)
    }
}

impl PartyCtx for PlayerCtx {
    type Link = Link;

    fn id(&self) -> usize {
        PlayerCtx::id(self)
    }

    fn players(&self) -> usize {
        PlayerCtx::players(self)
    }

    fn coins(&self) -> &CoinSource {
        PlayerCtx::coins(self)
    }

    fn take_link(&mut self, peer: usize) -> Link {
        PlayerCtx::take_link(self, peer)
    }

    fn return_link(&mut self, peer: usize, link: Link) {
        PlayerCtx::return_link(self, peer, link)
    }

    fn link(&mut self, peer: usize) -> SyncedLink<'_, Link> {
        PlayerCtx::link(self, peer)
    }
}

/// A borrowed link whose causal clock updates flow back to the player.
#[derive(Debug)]
pub struct SyncedLink<'a, L: ClockedChan = Link> {
    link: &'a mut L,
    player_clock: &'a mut u64,
}

impl<'a, L: ClockedChan> SyncedLink<'a, L> {
    /// Pairs a link with its owner's player clock: the link picks up the
    /// player's causal past now, and every receive flows back.
    pub fn new(link: &'a mut L, player_clock: &'a mut u64) -> SyncedLink<'a, L> {
        link.fold_clock(*player_clock);
        SyncedLink { link, player_clock }
    }
}

impl<L: ClockedChan> Chan for SyncedLink<'_, L> {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        self.link.send(msg)
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        let out = self.link.recv()?;
        *self.player_clock = (*self.player_clock).max(self.link.link_clock());
        Ok(out)
    }

    fn stats(&self) -> ChannelStats {
        self.link.stats()
    }
}

/// The result of a successful network run.
#[derive(Debug, Clone)]
pub struct NetOutcome<R> {
    /// Per-player outputs, indexed by player id.
    pub outputs: Vec<R>,
    /// Exact communication cost of the run.
    pub report: NetworkReport,
}

/// Runs an `m`-player protocol: every player executes `behavior`
/// concurrently, distinguished by [`PlayerCtx::id`].
///
/// # Errors
///
/// Fails if any player returns an error; primary failures are preferred
/// over the secondary hangups/timeouts they cause in other players.
///
/// # Examples
///
/// ```
/// use intersect_comm::net::{run_network, NetworkConfig};
/// use intersect_comm::bits::BitBuf;
///
/// // Everyone sends their id (8 bits) to player 0.
/// let out = run_network(&NetworkConfig::new(4, 1), |ctx| {
///     if ctx.id() == 0 {
///         let mut sum = 0u64;
///         for p in 1..ctx.players() {
///             sum += ctx.recv_from(p)?.reader().read_bits(8).unwrap();
///         }
///         Ok(sum)
///     } else {
///         let mut m = BitBuf::new();
///         m.push_bits(ctx.id() as u64, 8);
///         ctx.send_to(0, m)?;
///         Ok(0)
///     }
/// })?;
/// assert_eq!(out.outputs[0], 1 + 2 + 3);
/// assert_eq!(out.report.total_bits(), 3 * 8);
/// assert_eq!(out.report.rounds, 1);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
pub fn run_network<F, R>(cfg: &NetworkConfig, behavior: F) -> Result<NetOutcome<R>, ProtocolError>
where
    F: Fn(&mut PlayerCtx) -> Result<R, ProtocolError> + Sync,
    R: Send,
{
    LinkSet::new(cfg.players, cfg.seed, cfg.timeout).run(behavior)
}

/// A reusable full mesh of pairwise links for `m` players.
///
/// Owns every per-level pairwise endpoint a tournament round needs:
/// one channel per ordered pair, shared per-player counters, and the
/// common random string. Like the two-party spill-pool/reset machinery,
/// the mesh is built once and [`reset`](Self::reset) between sessions —
/// so m-party sessions are also allocation-free at steady state (the
/// engine's workers keep one `LinkSet` per party count and re-arm it
/// per session).
///
/// [`run_network`] is the one-shot convenience over a fresh set.
#[derive(Debug)]
pub struct LinkSet {
    players: usize,
    timeout: Duration,
    ctxs: Vec<PlayerCtx>,
    /// A player panicked in the last run: whatever it was holding is
    /// suspect, so the next `reset` rebuilds the mesh.
    panicked: bool,
}

impl LinkSet {
    /// Builds the mesh for `players` players, armed for one run with the
    /// common random string seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `players == 0`.
    pub fn new(players: usize, seed: u64, timeout: Duration) -> LinkSet {
        assert!(players >= 1, "network needs at least one player");
        let m = players;
        let mut txs: Vec<Vec<Option<Sender<NetFrame>>>> =
            (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
        let mut rxs: Vec<Vec<Option<Receiver<NetFrame>>>> =
            (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
        for a in 0..m {
            for b in 0..m {
                if a == b {
                    continue;
                }
                let (tx, rx) = crossbeam_channel::unbounded();
                txs[a][b] = Some(tx); // a's sender towards b
                rxs[b][a] = Some(rx); // b's receiver from a
            }
        }
        let coins = CoinSource::from_seed(seed);
        let counters: Vec<Arc<PlayerCounters>> = (0..m)
            .map(|_| Arc::new(PlayerCounters::default()))
            .collect();
        let mut ctxs: Vec<PlayerCtx> = Vec::with_capacity(m);
        for (id, (tx_row, rx_row)) in txs.into_iter().zip(rxs).enumerate() {
            let links: Vec<Option<Link>> = tx_row
                .into_iter()
                .zip(rx_row)
                .map(|(tx, rx)| match (tx, rx) {
                    (Some(tx), Some(rx)) => Some(Link {
                        tx,
                        rx,
                        clock: 0,
                        stats: ChannelStats::default(),
                        counters: counters[id].clone(),
                        timeout,
                    }),
                    _ => None,
                })
                .collect();
            ctxs.push(PlayerCtx {
                id,
                players: m,
                coins: coins.clone(),
                links,
                clock: 0,
                counters: counters[id].clone(),
            });
        }
        LinkSet {
            players,
            timeout,
            ctxs,
            panicked: false,
        }
    }

    /// Number of players the mesh connects.
    pub fn players(&self) -> usize {
        self.players
    }

    /// `true` iff every link is attached (no half was detached and
    /// dropped by a failed session).
    pub fn intact(&self) -> bool {
        self.ctxs.iter().all(|ctx| {
            ctx.links
                .iter()
                .enumerate()
                .all(|(peer, l)| (peer == ctx.id) == l.is_none())
        })
    }

    /// Re-arms the mesh for the next session: coins re-seeded from
    /// `seed`, all counters, clocks, and per-link stats zeroed, stale
    /// in-flight frames drained. A mesh that lost links to a failed
    /// session (`!intact()`) or hosted a panicking player is rebuilt
    /// outright, so `reset` always leaves the state of a fresh
    /// [`LinkSet::new`].
    pub fn reset(&mut self, seed: u64) {
        if !self.intact() || self.panicked {
            *self = LinkSet::new(self.players, seed, self.timeout);
            return;
        }
        let coins = CoinSource::from_seed(seed);
        for ctx in &mut self.ctxs {
            ctx.clock = 0;
            ctx.coins = coins.clone();
            ctx.counters.reset();
            for link in ctx.links.iter_mut().flatten() {
                while link.rx.try_recv().is_ok() {}
                link.clock = 0;
                link.stats = ChannelStats::default();
            }
        }
    }

    /// Runs one m-party session: every player executes `behavior` on its
    /// own thread, distinguished by [`PlayerCtx::id`]. Call
    /// [`reset`](Self::reset) before re-running on a reused mesh.
    ///
    /// # Errors
    ///
    /// Fails if any player returns an error; primary failures are
    /// preferred over the secondary hangups/timeouts they cause. A player
    /// that *panics* is contained like a two-party half: the run fails
    /// with [`ProtocolError::Internal`] and costs one session.
    pub fn run<F, R>(&mut self, behavior: F) -> Result<NetOutcome<R>, ProtocolError>
    where
        F: Fn(&mut PlayerCtx) -> Result<R, ProtocolError> + Sync,
        R: Send,
    {
        let m = self.players;
        let (behavior, panicked) = (&behavior, &AtomicBool::new(false));
        let results: Vec<(Result<R, ProtocolError>, ChannelStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ctxs
                .iter_mut()
                .map(|ctx| {
                    scope.spawn(move || {
                        let r = catch_unwind(AssertUnwindSafe(|| behavior(ctx)));
                        let r = r.unwrap_or_else(|payload| {
                            panicked.store(true, Ordering::Relaxed);
                            Err(contained_error(
                                format_args!("player {}", ctx.id()),
                                payload,
                            ))
                        });
                        (r, ctx.stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("a player's panic is caught inside its thread")
                })
                .collect()
        });
        self.panicked = panicked.load(Ordering::Relaxed);

        let mut report = NetworkReport {
            bits_sent: Vec::with_capacity(m),
            bits_received: Vec::with_capacity(m),
            messages: 0,
            rounds: 0,
        };
        let mut outputs = Vec::with_capacity(m);
        let mut first_err: Option<ProtocolError> = None;
        let mut primary_err: Option<ProtocolError> = None;
        for (res, stats) in results {
            report.bits_sent.push(stats.bits_sent);
            report.bits_received.push(stats.bits_received);
            report.messages += stats.messages_sent;
            report.rounds = report.rounds.max(stats.clock);
            match res {
                Ok(v) => outputs.push(v),
                Err(e) => {
                    let secondary =
                        matches!(e, ProtocolError::ChannelClosed | ProtocolError::Timeout);
                    if !secondary && primary_err.is_none() {
                        primary_err = Some(e.clone());
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = primary_err.or(first_err) {
            return Err(e);
        }
        Ok(NetOutcome { outputs, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(v: u64, w: usize) -> BitBuf {
        let mut b = BitBuf::new();
        b.push_bits(v, w);
        b
    }

    #[test]
    fn star_aggregation_counts_per_player_bits() {
        let out = run_network(&NetworkConfig::new(5, 3), |ctx| {
            if ctx.id() == 0 {
                let mut total = 0;
                for p in 1..5 {
                    total += ctx.recv_from(p)?.reader().read_bits(16).unwrap();
                }
                Ok(total)
            } else {
                ctx.send_to(0, msg(ctx.id() as u64 * 100, 16))?;
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out.outputs[0], 1000);
        assert_eq!(out.report.bits_sent, vec![0, 16, 16, 16, 16]);
        assert_eq!(out.report.bits_received[0], 64);
        assert_eq!(out.report.rounds, 1);
        assert_eq!(out.report.messages, 4);
    }

    #[test]
    fn relay_chain_counts_rounds() {
        // 0 -> 1 -> 2 -> 3: three causally chained messages = 3 rounds.
        let out = run_network(&NetworkConfig::new(4, 0), |ctx| {
            let id = ctx.id();
            if id == 0 {
                ctx.send_to(1, msg(7, 8))?;
            } else {
                let v = ctx.recv_from(id - 1)?.reader().read_bits(8).unwrap();
                if id + 1 < ctx.players() {
                    ctx.send_to(id + 1, msg(v + 1, 8))?;
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.report.rounds, 3);
    }

    #[test]
    fn pair_links_run_two_party_logic() {
        let out = run_network(&NetworkConfig::new(2, 0), |ctx| {
            let id = ctx.id();
            let mut chan = ctx.link(1 - id);
            if id == 0 {
                chan.send(msg(42, 16))?;
                Ok(chan.recv()?.reader().read_bits(16).unwrap())
            } else {
                let v = chan.recv()?.reader().read_bits(16).unwrap();
                chan.send(msg(v + 1, 16))?;
                Ok(v)
            }
        })
        .unwrap();
        assert_eq!(out.outputs, vec![43, 42]);
        assert_eq!(out.report.rounds, 2);
        assert_eq!(out.report.total_bits(), 32);
    }

    #[test]
    fn detached_links_allow_parallel_subprotocols() {
        // Player 0 ping-pongs 5 times with each of 4 peers. Done through
        // detached links in worker threads, the causal round count is that
        // of ONE ping-pong series (10), not four of them (40).
        let out = run_network(&NetworkConfig::new(5, 0), |ctx| {
            if ctx.id() == 0 {
                let links: Vec<(usize, Link)> = (1..5).map(|p| (p, ctx.take_link(p))).collect();
                let done: Vec<(usize, Link)> = std::thread::scope(|s| {
                    links
                        .into_iter()
                        .map(|(p, mut link)| {
                            s.spawn(move || {
                                for i in 0..5u64 {
                                    link.send(msg(i, 8)).unwrap();
                                    link.recv().unwrap();
                                }
                                (p, link)
                            })
                        })
                        .collect::<Vec<_>>()
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .collect()
                });
                for (p, link) in done {
                    ctx.return_link(p, link);
                }
                Ok(ctx.clock())
            } else {
                for _ in 0..5 {
                    let v = ctx.recv_from(0)?;
                    ctx.send_to(0, v)?;
                }
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out.report.rounds, 10, "parallel series must not add");
        assert_eq!(out.report.messages, 5 * 2 * 4);
    }

    #[test]
    fn sequential_subprotocols_do_add_rounds() {
        let out = run_network(&NetworkConfig::new(3, 0), |ctx| {
            if ctx.id() == 0 {
                for p in 1..3 {
                    let mut chan = ctx.link(p);
                    chan.send(msg(1, 8))?;
                    chan.recv()?;
                }
                Ok(ctx.clock())
            } else {
                let v = ctx.recv_from(0)?;
                ctx.send_to(0, v)?;
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out.report.rounds, 4, "sequential ping-pongs add");
    }

    #[test]
    fn primary_error_preferred() {
        let err = run_network(&NetworkConfig::new(3, 0), |ctx| {
            if ctx.id() == 1 {
                Err(ProtocolError::InvalidInput("player 1 bad".into()))
            } else if ctx.id() == 0 {
                ctx.recv_from(1).map(|_| ())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, ProtocolError::InvalidInput("player 1 bad".into()));
    }

    #[test]
    fn shared_coins_are_global() {
        use rand::Rng;
        let out = run_network(&NetworkConfig::new(4, 12), |ctx| {
            Ok(ctx.coins().rng_for("global").gen::<u64>())
        })
        .unwrap();
        assert!(out.outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn linkset_reset_reuse_is_bit_identical() {
        let behavior = |ctx: &mut PlayerCtx| {
            use rand::Rng;
            let id = ctx.id();
            let noise = ctx.coins().rng_for("noise").gen_range(1..=8u64);
            if id == 0 {
                let mut total = 0;
                for p in 1..4 {
                    total += ctx.recv_from(p)?.reader().read_bits(8).unwrap();
                }
                ctx.send_to(1, msg(total, 16))?;
                Ok(total)
            } else {
                ctx.send_to(0, msg(id as u64 + noise, 8))?;
                if id == 1 {
                    ctx.recv_from(0)?;
                }
                Ok(0)
            }
        };
        let fresh = run_network(&NetworkConfig::new(4, 9), behavior).unwrap();
        // What the mesh served before must not show: a clean session, or
        // one in which player 1 panicked — contained, so it costs that
        // session only (its peers time out on the short link timeout).
        for spoiled in [false, true] {
            let mut set = LinkSet::new(4, 1, Duration::from_millis(200));
            let before = set.run(|ctx| {
                if spoiled && ctx.id() == 1 {
                    panic!("player one explodes");
                }
                behavior(ctx)
            });
            if spoiled {
                let why = "player 1 panicked: player one explodes".to_string();
                assert_eq!(before.unwrap_err(), ProtocolError::Internal(why));
            } else {
                before.unwrap();
            }
            set.reset(9);
            let reused = set.run(behavior).unwrap();
            assert_eq!(reused.outputs, fresh.outputs, "spoiled: {spoiled}");
            assert_eq!(reused.report, fresh.report, "spoiled: {spoiled}");
            assert!(set.intact());
        }
    }

    #[test]
    fn linkset_reset_rebuilds_after_lost_link() {
        let mut set = LinkSet::new(3, 0, Duration::from_secs(5));
        set.run(|ctx| {
            if ctx.id() == 0 {
                drop(ctx.take_link(2)); // simulate a failed session eating a link
            }
            Ok(())
        })
        .unwrap();
        assert!(!set.intact());
        set.reset(0);
        assert!(set.intact());
        let out = set
            .run(|ctx| {
                if ctx.id() == 0 {
                    ctx.send_to(2, msg(5, 8))?;
                    Ok(0)
                } else if ctx.id() == 2 {
                    Ok(ctx.recv_from(0)?.reader().read_bits(8).unwrap())
                } else {
                    Ok(0)
                }
            })
            .unwrap();
        assert_eq!(out.outputs[2], 5);
    }

    #[test]
    fn split_halves_meter_like_whole_link() {
        // Run the same ping-pong twice: once over whole links, once with
        // player 0's link split into raw halves driven from two threads.
        // Per-player bit meters and final clocks must agree.
        let whole = run_network(&NetworkConfig::new(2, 0), |ctx| {
            let id = ctx.id();
            let mut chan = ctx.link(1 - id);
            for i in 0..3u64 {
                if id == 0 {
                    chan.send(msg(i, 8))?;
                    chan.recv()?;
                } else {
                    let v = chan.recv()?;
                    chan.send(v)?;
                }
            }
            Ok(ctx.clock())
        })
        .unwrap();
        let halves = run_network(&NetworkConfig::new(2, 0), |ctx| {
            if ctx.id() == 0 {
                let (tx, mut rx) = ctx.take_link(1).split();
                for i in 0..3u64 {
                    // A proxy forwards depths verbatim: stamp what the
                    // in-process path would have stamped.
                    tx.send_raw(rx.clock() + 1, msg(i, 8))?;
                    rx.recv_raw(Duration::from_secs(5))?
                        .ok_or(ProtocolError::Timeout)?;
                }
                ctx.fold_clock(rx.clock());
                Ok(ctx.clock())
            } else {
                let mut chan = ctx.link(0);
                for _ in 0..3 {
                    let v = chan.recv()?;
                    chan.send(v)?;
                }
                Ok(ctx.clock())
            }
        })
        .unwrap();
        assert_eq!(halves.outputs, whole.outputs);
        assert_eq!(halves.report.bits_sent, whole.report.bits_sent);
        assert_eq!(halves.report.bits_received, whole.report.bits_received);
        assert_eq!(halves.report.rounds, whole.report.rounds);
    }

    #[test]
    fn timeout_is_reported() {
        let cfg = NetworkConfig {
            players: 2,
            seed: 0,
            timeout: Duration::from_millis(20),
        };
        let err = run_network(&cfg, |ctx| {
            if ctx.id() == 0 {
                ctx.recv_from(1).map(|_| ())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, ProtocolError::Timeout);
    }
}
