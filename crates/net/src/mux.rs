//! One multiplexed connection, used by the client and the server alike.
//!
//! A [`Conn`] has no reader thread and no writer thread. **The waiter
//! reads:** a thread that needs its next event looks in its inbox; if
//! the inbox is empty and nobody holds the *read role* it takes the role
//! and reads frames off the socket itself — keeping its own, putting the
//! others into their owners' inboxes — and if somebody else is reading
//! it sleeps until its inbox gets an event or the role is handed to it.
//! Inboxes, the role flag and the closed flag sit under one mutex, so
//! "inbox empty and role taken, therefore sleep" cannot race with "event
//! pushed" or "role released".
//!
//! **Writes coalesce by one rule:** frames are encoded into the
//! connection's write buffer; a metered protocol message flushes at
//! once, a control frame does not, and every thread flushes before it
//! blocks (before the blocking `read`, before sleeping as a follower)
//! and when its session ends. So an Accept rides with the first reply
//! and Fin + Done leave in one `write`. One thread writes at a time and
//! takes along what the others encode meanwhile; while the peer does not
//! take its bytes it reads what the peer sends, so two peers that both
//! send more than the socket buffers hold before they receive get on.
//!
//! Frames nobody is registered for go to the role's *stray* handler on
//! the reading thread, **before the read role moves on** — the server
//! admits an Open there, so the session's inbox exists before the next
//! frame (possibly that session's first message) is read. A task the
//! handler returns runs inside the wait of the reading thread if that
//! thread is the connection's own ([`CONN_KEY`]), otherwise on a helper
//! thread of the connection; helpers are reused, grow to the peak number
//! of concurrently running tasks and are joined by [`Conn::join_helpers`].

use crate::frame::{self, decode_body, FrameError, WireFrame, MAX_BODY_BYTES};
use crate::metrics;
use crate::transport::Stream;
use crossbeam_channel::{Receiver, Sender};
use intersect_comm::error::ProtocolError;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// An inbox address: the session id plus a lane. Lane 0 takes every
/// frame of the session; the client half of an m-party session also
/// registers lane `peer + 1` per pairwise link, which then takes that
/// peer's [`WireFrame::MpMsg`] frames.
pub(crate) type Key = (u64, u32);

/// The server connection thread's own inbox (clients number sessions
/// from 1, so session 0 is never a session).
pub(crate) const CONN_KEY: Key = (0, 0);

/// Work the stray handler hands back: one admitted session's body.
pub(crate) type Task = Box<dyn FnOnce(&Arc<Conn>) + Send>;

/// What a role does with a frame no inbox is registered for.
pub(crate) type Stray = Box<dyn Fn(&Arc<Conn>, WireFrame) -> Option<Task> + Send + Sync>;

/// Upper bound on one blocking `read`: the reader re-checks its
/// deadline at least this often when no frame arrives at all.
const READ_TICK: Duration = Duration::from_millis(250);

/// Upper bound on one blocking `write`: a writer whose bytes the peer
/// does not take looks this often at what the peer has sent instead.
const WRITE_TICK: Duration = Duration::from_millis(5);

/// Initial (and shrink-back) size of the read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// `now + timeout`; `None` (no deadline) if that overflows.
pub(crate) fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// A `read` or `write` that timed out (would have blocked, on a
/// non-blocking socket) or was interrupted: nothing is wrong, try again.
fn not_yet(e: &io::Error) -> bool {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), Interrupted | TimedOut | WouldBlock)
}

/// The size, prefix included, of the frame `bytes` starts with, once its
/// length prefix is in; an error if that is more than a frame may hold.
fn frame_len(bytes: &[u8]) -> Result<Option<usize>, FrameError> {
    match bytes
        .first_chunk::<4>()
        .map(|prefix| u32::from_le_bytes(*prefix))
    {
        Some(len) if len > MAX_BODY_BYTES => Err(FrameError::Oversized { len }),
        len => Ok(len.map(|len| 4 + len as usize)),
    }
}

#[derive(Default)]
struct Inbox {
    frames: VecDeque<WireFrame>,
    /// Set while the owner sleeps as a follower; taken by whoever wakes it.
    sleeper: Option<Thread>,
}

impl Inbox {
    #[must_use = "the woken thread must be unparked once the lock is released"]
    fn push(&mut self, frame: WireFrame) -> Option<Thread> {
        self.frames.push_back(frame);
        self.sleeper.take()
    }
}

#[derive(Default)]
struct State {
    inboxes: HashMap<Key, Inbox>,
    reading: bool,
    closed: bool,
    goodbye: bool,
}

/// The bytes read off the socket and not yet decoded.
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// Decodes the next frame if the buffer holds all of it.
    fn parse(&mut self) -> Result<Option<WireFrame>, FrameError> {
        let avail = &self.buf[self.start..self.end];
        let Some(total) = frame_len(avail)?.filter(|total| *total <= avail.len()) else {
            return Ok(None);
        };
        let frame = decode_body(&avail[4..total])?;
        self.start += total;
        metrics::frame_observed("rx", total as u64);
        Ok(Some(frame))
    }

    /// One `read` into the free part of the buffer, which is first made
    /// large enough for the frame that is pending (if its prefix is in).
    /// `Ok(false)` if the read timed out (or, on a non-blocking socket,
    /// would have blocked); an error at the end of the stream — clean
    /// between frames or torn inside one, the connection is over either
    /// way.
    fn fill(&mut self, mut stream: &Stream) -> Result<bool, FrameError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let pending = frame_len(&self.buf[..self.end])?.unwrap_or(0);
        if pending > self.buf.len() {
            self.buf.resize(pending, 0);
        } else if self.end == 0 && self.buf.len() > 4 * READ_CHUNK {
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
        }
        match stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(FrameError::Truncated),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e) if not_yet(&e) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

/// The frames encoded and not yet written.
#[derive(Default)]
struct WriteBuf {
    pending: Vec<u8>,
    /// Set while a thread is writing: it goes on until `pending` is
    /// empty, so what others encode meanwhile leaves with it, exactly one
    /// thread is inside `write`, and the mutex is never held across one.
    writing: bool,
    /// The buffer the last write emptied, kept for its capacity.
    spare: Vec<u8>,
}

/// The reusable helper threads of one connection.
struct Helpers {
    tx: Option<Sender<Task>>,
    rx: Receiver<Task>,
    /// Tasks submitted and not yet finished; never above `threads.len()`.
    busy: usize,
    threads: Vec<JoinHandle<()>>,
}

/// One multiplexed connection; see the module docs.
pub(crate) struct Conn {
    stream: Stream,
    state: Mutex<State>,
    /// Held by the thread that has the read role, never contended.
    rbuf: Mutex<ReadBuf>,
    wbuf: Mutex<WriteBuf>,
    /// How long a write may make no progress before the connection fails.
    timeout: Duration,
    stray: Stray,
    helpers: Mutex<Helpers>,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Conn({:?})", self.stream)
    }
}

impl Conn {
    /// Wraps a connected stream. `timeout` bounds a write that makes no
    /// progress; one blocking `read` or `write` is bounded by its tick.
    pub(crate) fn new(stream: Stream, timeout: Duration, stray: Stray) -> io::Result<Arc<Conn>> {
        // (A zero socket timeout is an error, not "no wait".)
        let timeout = timeout.max(Duration::from_millis(1));
        stream.set_read_timeout(Some(timeout.min(READ_TICK)))?;
        stream.set_write_timeout(Some(timeout.min(WRITE_TICK)))?;
        let (tx, rx) = crossbeam_channel::unbounded();
        Ok(Arc::new(Conn {
            stream,
            state: Mutex::default(),
            rbuf: Mutex::new(ReadBuf {
                buf: vec![0; READ_CHUNK],
                start: 0,
                end: 0,
            }),
            wbuf: Mutex::default(),
            timeout,
            stray,
            helpers: Mutex::new(Helpers {
                tx: Some(tx),
                rx,
                busy: 0,
                threads: Vec::new(),
            }),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("connection state poisoned")
    }

    /// Opens `session`'s inboxes, lanes `0..=lanes`; `false` (and nothing
    /// opened) if the session already has one. All lanes open at once,
    /// before the session's Open is sent: a lane opened later would miss
    /// what another reader had already routed to lane 0.
    pub(crate) fn register(&self, session: u64, lanes: u32) -> bool {
        let mut st = self.lock();
        let fresh = !st.inboxes.contains_key(&(session, 0));
        if fresh {
            for lane in 0..=lanes {
                st.inboxes.insert((session, lane), Inbox::default());
            }
        }
        fresh
    }

    /// Drops every inbox (all lanes) of `session` with whatever is in them.
    pub(crate) fn unregister(&self, session: u64) {
        self.lock().inboxes.retain(|key, _| key.0 != session);
    }

    /// `true` once the peer has said [`WireFrame::Goodbye`].
    pub(crate) fn said_goodbye(&self) -> bool {
        self.lock().goodbye
    }

    /// Encodes `frame` into the write buffer and, if `flush`, writes the
    /// buffer out. Metered protocol messages flush; control frames ride
    /// with the next flush.
    pub(crate) fn send(
        self: &Arc<Self>,
        frame: &WireFrame,
        flush: bool,
    ) -> Result<(), ProtocolError> {
        let mut w = self.wbuf.lock().expect("write buffer poisoned");
        let before = w.pending.len();
        frame::encode_into(&mut w.pending, frame);
        metrics::frame_observed("tx", (w.pending.len() - before) as u64);
        if flush {
            self.write_out(w, None)
        } else {
            Ok(())
        }
    }

    /// Writes out whatever is buffered. Called before a thread blocks
    /// and when a session ends.
    pub(crate) fn flush(self: &Arc<Self>) {
        let w = self.wbuf.lock().expect("write buffer poisoned");
        let _ = self.write_out(w, None);
    }

    /// Writes until nothing is pending — unless another thread is doing
    /// just that, which then takes these bytes along. `held` is the read
    /// buffer of a caller that holds the read role.
    fn write_out<'a>(
        self: &'a Arc<Self>,
        mut w: MutexGuard<'a, WriteBuf>,
        mut held: Option<&mut ReadBuf>,
    ) -> Result<(), ProtocolError> {
        if w.writing || w.pending.is_empty() {
            return Ok(());
        }
        w.writing = true;
        let mut out = std::mem::take(&mut w.spare);
        loop {
            std::mem::swap(&mut out, &mut w.pending);
            drop(w);
            let written = self.write_all(&out, held.as_deref_mut());
            out.clear();
            w = self.wbuf.lock().expect("write buffer poisoned");
            if written.is_err() || w.pending.is_empty() {
                w.writing = false;
                if out.capacity() <= 4 * READ_CHUNK {
                    w.spare = out;
                }
                return written.map_err(|_| {
                    // A failed or timed-out write may have torn a frame:
                    // the byte stream is unusable from here on.
                    w.pending.clear();
                    self.stream.shutdown();
                    ProtocolError::ChannelClosed
                });
            }
        }
    }

    /// `write_all` for the thread that holds the write role. A peer that
    /// does not take the bytes may itself be inside a `write`, waiting
    /// for this side to read (both halves of an exchange send before
    /// either receives), so between attempts the writer routes what the
    /// peer has sent — with the read role if it is free; if another
    /// thread holds it, that thread is reading already.
    fn write_all(
        self: &Arc<Self>,
        mut out: &[u8],
        mut held: Option<&mut ReadBuf>,
    ) -> io::Result<()> {
        let mut stalled = None;
        while !out.is_empty() {
            match (&self.stream).write(out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    out = &out[n..];
                    stalled = None;
                }
                Err(e) if not_yet(&e) => {
                    if stalled.get_or_insert_with(Instant::now).elapsed() >= self.timeout {
                        return Err(e);
                    }
                    match held.as_deref_mut() {
                        Some(rbuf) => self.drain(rbuf).map_err(|_| e)?,
                        None => self.poll_reads(),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Closes the socket; whoever reads next sees the end of the stream.
    pub(crate) fn shutdown(&self) {
        self.stream.shutdown();
    }

    /// Waits for the next frame addressed to `key`. On the server's
    /// connection thread ([`CONN_KEY`]) the wait also runs the sessions
    /// that thread admits while it reads.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] once `deadline` passes,
    /// [`ProtocolError::ChannelClosed`] if the connection is gone or
    /// `key` has no inbox.
    pub(crate) fn wait(
        self: &Arc<Self>,
        key: Key,
        deadline: Option<Instant>,
    ) -> Result<WireFrame, ProtocolError> {
        loop {
            let mut st = self.lock();
            let (closed, reading) = (st.closed, st.reading);
            let Some(inbox) = st.inboxes.get_mut(&key) else {
                return self.leave(st, Err(ProtocolError::ChannelClosed));
            };
            inbox.sleeper = None;
            if let Some(frame) = inbox.frames.pop_front() {
                return self.leave(st, Ok(frame));
            }
            if closed {
                return Err(ProtocolError::ChannelClosed);
            }
            if expired(deadline) {
                return self.leave(st, Err(ProtocolError::Timeout));
            }
            if !reading {
                st.reading = true;
                drop(st);
                match self.read_for(key, deadline)? {
                    Some(frame) => return Ok(frame),
                    // It ran a session instead: wait again.
                    None => continue,
                }
            }
            // Somebody else reads: sleep until a frame is pushed or the
            // role is handed over. `unpark` before `park` is not lost.
            inbox.sleeper = Some(std::thread::current());
            drop(st);
            self.flush();
            match deadline {
                Some(d) => std::thread::park_timeout(d.saturating_duration_since(Instant::now())),
                None => std::thread::park(),
            }
        }
    }

    /// Leaves a wait. If that leaves the read role free while others
    /// sleep, one sleeper with an empty inbox is woken to take it over —
    /// otherwise they would sleep until their deadlines.
    fn leave<T>(&self, mut st: MutexGuard<'_, State>, result: T) -> T {
        let heir = if st.reading || st.closed {
            None
        } else {
            // The server's connection thread first: it has no session to
            // go back to, so under load it keeps the role and the stream
            // is read without a hand-over per frame.
            let idle = |inbox: &Inbox| inbox.sleeper.is_some() && inbox.frames.is_empty();
            let key = match st.inboxes.get(&CONN_KEY) {
                Some(inbox) if idle(inbox) => Some(CONN_KEY),
                _ => st.inboxes.iter().find(|(_, i)| idle(i)).map(|(k, _)| *k),
            };
            key.and_then(|k| st.inboxes.get_mut(&k)?.sleeper.take())
        };
        drop(st);
        if let Some(thread) = heir {
            thread.unpark();
        }
        result
    }

    /// Holds the read role until a frame for `key` shows up, the deadline
    /// passes or the connection ends; releases it on return. `None` once
    /// the connection thread has run a session it admitted itself.
    fn read_for(
        self: &Arc<Self>,
        key: Key,
        deadline: Option<Instant>,
    ) -> Result<Option<WireFrame>, ProtocolError> {
        let mut rbuf = self.rbuf.lock().expect("read buffer poisoned");
        loop {
            match self.route_buffered(&mut rbuf, key == CONN_KEY) {
                Ok(Some(session)) => {
                    drop(rbuf);
                    self.release(());
                    session(self);
                    return Ok(None);
                }
                Ok(None) => {}
                Err(e) => {
                    self.close(&e);
                    return Err(ProtocolError::ChannelClosed);
                }
            }
            let mut st = self.lock();
            let next = st.inboxes.get_mut(&key).map(|i| i.frames.pop_front());
            drop(st);
            match next {
                None => return self.release(Err(ProtocolError::ChannelClosed)),
                Some(Some(frame)) => return self.release(Ok(Some(frame))),
                Some(None) => {}
            }
            if expired(deadline) {
                return self.release(Err(ProtocolError::Timeout));
            }
            // Nothing for this waiter yet. What is buffered for writing
            // goes out before the `read` that may block — and a write may
            // read while the peer keeps it waiting, so look again after one.
            let w = self.wbuf.lock().expect("write buffer poisoned");
            if !w.writing && !w.pending.is_empty() {
                let _ = self.write_out(w, Some(&mut rbuf));
                continue;
            }
            drop(w);
            if let Err(e) = rbuf.fill(&self.stream) {
                self.close(&e);
                return Err(ProtocolError::ChannelClosed);
            }
        }
    }

    fn release<T>(&self, result: T) -> T {
        let mut st = self.lock();
        st.reading = false;
        self.leave(st, result)
    }

    /// Routes every frame the read buffer holds — all of them before the
    /// role can move on, so none waits for the next reader to wake up. A
    /// session the stray handler admitted goes to a helper thread, with
    /// one exception: the connection thread (`conn_thread` set) gets the
    /// first one back to run itself if no other session is running on
    /// the connection. With others running it stays the reader instead.
    fn route_buffered(
        self: &Arc<Self>,
        rbuf: &mut ReadBuf,
        conn_thread: bool,
    ) -> Result<Option<Task>, FrameError> {
        let mut own = None;
        loop {
            let frame = match rbuf.parse() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(own),
                Err(e) => {
                    // The stream ends here, but a session admitted from it
                    // holds a slot: it runs, sees the close and retires.
                    if let Some(session) = own {
                        self.submit(session);
                    }
                    return Err(e);
                }
            };
            if let Some(session) = self.route(frame) {
                // Inboxes: the connection thread's, the admitted
                // session's, and those of sessions already running.
                if conn_thread && own.is_none() && self.lock().inboxes.len() <= 2 {
                    own = Some(session);
                } else {
                    self.submit(session);
                }
            }
        }
    }

    /// Puts one frame where it belongs. Runs on the thread holding the
    /// read role; returns the task of a session the stray handler admitted.
    fn route(self: &Arc<Self>, frame: WireFrame) -> Option<Task> {
        let mut st = self.lock();
        let session = frame.session();
        let mut key = (session, 0);
        match &frame {
            WireFrame::Goodbye => {
                st.goodbye = true;
                return None;
            }
            WireFrame::MpMsg { peer, .. } if st.inboxes.contains_key(&(session, peer + 1)) => {
                key.1 = peer + 1;
            }
            // A session's failure ends every lane of it, not only lane 0.
            WireFrame::Error { .. } => {
                let inboxes = st.inboxes.iter_mut();
                for (_, inbox) in inboxes.filter(|(k, _)| k.0 == session && k.1 != 0) {
                    if let Some(thread) = inbox.push(frame.clone()) {
                        thread.unpark();
                    }
                }
            }
            _ => {}
        }
        match st.inboxes.get_mut(&key) {
            Some(inbox) => {
                let woken = inbox.push(frame);
                drop(st);
                if let Some(thread) = woken {
                    thread.unpark();
                }
                None
            }
            None => {
                drop(st);
                (self.stray)(self, frame)
            }
        }
    }

    /// Fails every open inbox with a connection-level error message.
    pub(crate) fn broadcast_error(&self, message: &str) {
        let mut st = self.lock();
        for (key, inbox) in st.inboxes.iter_mut() {
            let (session, message) = (key.0, message.to_owned());
            if let Some(thread) = inbox.push(WireFrame::Error { session, message }) {
                thread.unpark();
            }
        }
    }

    /// Marks the connection over and wakes every sleeper. A framing
    /// violation (as opposed to a dead socket) is reported to the peer
    /// first: the byte stream has lost its frame boundaries.
    fn close(self: &Arc<Self>, why: &FrameError) {
        if matches!(why, FrameError::Oversized { .. } | FrameError::Malformed(_)) {
            let (session, message) = (0, format!("protocol violation: {why}"));
            let _ = self.send(&WireFrame::Error { session, message }, true);
        }
        let mut st = self.lock();
        st.closed = true;
        st.reading = false;
        for inbox in st.inboxes.values_mut() {
            if let Some(thread) = inbox.sleeper.take() {
                thread.unpark();
            }
        }
    }

    /// Routes whatever the socket holds right now, without blocking and
    /// without waiting for anything. The caller holds both roles:
    /// non-blocking mode is a property of the socket, not of one `read`,
    /// so no other thread may be inside a `read` or a `write` meanwhile.
    fn drain(self: &Arc<Self>, rbuf: &mut ReadBuf) -> Result<(), FrameError> {
        let _ = self.stream.set_nonblocking(true);
        let drained = loop {
            // Routing between reads keeps the buffer from filling up, and
            // what arrived ahead of the end of the stream (the server's
            // Goodbye) is routed before the end is acted on.
            let more = self.route_buffered(rbuf, false);
            match more.and_then(|_| rbuf.fill(&self.stream)) {
                Ok(true) => {}
                end => break end.map(drop),
            }
        };
        let _ = self.stream.set_nonblocking(false);
        drained
    }

    /// [`drain`](Self::drain) for a holder of the write role that does
    /// not read already; nothing to do while another thread reads.
    fn poll_reads(self: &Arc<Self>) {
        let mut st = self.lock();
        if st.reading || st.closed {
            return;
        }
        st.reading = true;
        drop(st);
        let mut rbuf = self.rbuf.lock().expect("read buffer poisoned");
        let drained = self.drain(&mut rbuf);
        drop(rbuf);
        match drained {
            Ok(()) => self.release(()),
            Err(e) => self.close(&e),
        }
    }

    /// Routes what has arrived, for a caller that waits for nothing:
    /// there is no background reader, so frames that arrive while nobody
    /// waits stay in the socket. Skipped while a session is writing — it
    /// reads next.
    pub(crate) fn poll(self: &Arc<Self>) {
        let mut w = self.wbuf.lock().expect("write buffer poisoned");
        if w.writing {
            return;
        }
        w.writing = true;
        drop(w);
        self.poll_reads();
        let mut w = self.wbuf.lock().expect("write buffer poisoned");
        w.writing = false;
        let _ = self.write_out(w, None);
    }

    /// Runs `task` on a helper thread: an idle one if there is one, a
    /// new one otherwise.
    fn submit(self: &Arc<Self>, task: Task) {
        let mut h = self.helpers.lock().expect("helper pool poisoned");
        let Some(tx) = h.tx.clone() else { return };
        h.busy += 1;
        if h.busy > h.threads.len() {
            let conn = Arc::clone(self);
            let rx = h.rx.clone();
            h.threads.push(std::thread::spawn(move || {
                for task in rx {
                    task(&conn);
                    conn.helpers.lock().expect("helper pool poisoned").busy -= 1;
                }
            }));
        }
        let _ = tx.send(task);
    }

    /// Lets the helper threads finish what they run and joins them.
    pub(crate) fn join_helpers(&self) {
        let threads = {
            let mut h = self.helpers.lock().expect("helper pool poisoned");
            h.tx = None;
            std::mem::take(&mut h.threads)
        };
        for thread in threads {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{EndpointAddr, Listener};

    /// Both ends send more than the socket buffers hold before either
    /// waits: each `write` finishes only if the other end reads meanwhile.
    #[test]
    fn writers_that_wait_for_each_other_keep_reading() {
        let listener = Listener::bind(&EndpointAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let near = Stream::connect(&listener.local_addr()).unwrap();
        let ends = [near, listener.accept().unwrap()].map(|stream| {
            std::thread::spawn(move || {
                let timeout = Duration::from_secs(20);
                let conn = Conn::new(stream, timeout, Box::new(|_, _| None)).unwrap();
                conn.register(1, 0);
                let (session, line) = (1, "x".repeat(12 << 20));
                conn.send(&WireFrame::Open { session, line }, true)
                    .expect("send");
                let frame = conn.wait((1, 0), deadline_after(timeout)).expect("wait");
                assert!(matches!(frame, WireFrame::Open { line, .. } if line.len() == 12 << 20));
            })
        });
        ends.into_iter().for_each(|end| end.join().unwrap());
    }
}
