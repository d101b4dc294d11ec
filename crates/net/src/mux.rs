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
//! and Fin + Done leave in one `write`.
//!
//! Frames nobody is registered for go to the role's *stray* handler on
//! the reading thread, **before the read role moves on** — the server
//! admits an Open there, so the session's inbox exists before the next
//! frame (possibly that session's first message) is read. A task the
//! handler returns runs on the reading thread if that thread is the
//! connection's own ([`CONN_KEY`]), otherwise on a helper thread of the
//! connection; helpers are reused, grow to the peak number of
//! concurrently running tasks and are joined by [`Conn::join_helpers`].

use crate::frame::{self, decode_body, FrameError, WireFrame, MAX_BODY_BYTES};
use crate::metrics;
use crate::transport::Stream;
use crossbeam_channel::{Receiver, Sender};
use intersect_comm::error::ProtocolError;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
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
pub(crate) type Stray = Box<dyn Fn(&Conn, WireFrame) -> Option<Task> + Send + Sync>;

/// What a wait returns.
pub(crate) enum Event {
    /// A frame addressed to the waiter.
    Frame(WireFrame),
    /// A session to run (only ever delivered to [`CONN_KEY`]).
    Run(Task),
}

/// Upper bound on one blocking `read`: the reader re-checks its
/// deadline at least this often when no frame arrives at all.
const READ_TICK: Duration = Duration::from_millis(250);

/// Initial (and shrink-back) size of the read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// `now + timeout`; `None` (no deadline) if that overflows.
pub(crate) fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[derive(Default)]
struct Inbox {
    events: VecDeque<Event>,
    /// Set while the owner sleeps as a follower; taken by whoever wakes it.
    sleeper: Option<Thread>,
}

impl Inbox {
    #[must_use = "the woken thread must be unparked once the lock is released"]
    fn push(&mut self, event: Event) -> Option<Thread> {
        self.events.push_back(event);
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
        let Some(prefix) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_BODY_BYTES {
            return Err(FrameError::Oversized { len });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
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
        let pending = match self.buf[..self.end].first_chunk::<4>() {
            Some(prefix) => 4 + u32::from_le_bytes(*prefix) as usize,
            None => 0,
        };
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
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }
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
    wbuf: Mutex<Vec<u8>>,
    /// Set while `wbuf` holds control frames no write has taken yet, so
    /// a flush with nothing to do does not queue behind a writer that is
    /// inside its `write`.
    unflushed: AtomicBool,
    stray: Stray,
    helpers: Mutex<Helpers>,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Conn({:?})", self.stream)
    }
}

impl Conn {
    /// Wraps a connected stream. `timeout` bounds a blocking `write`;
    /// a blocking `read` is bounded by [`READ_TICK`] so deadlines are
    /// re-checked while the line is silent.
    pub(crate) fn new(stream: Stream, timeout: Duration, stray: Stray) -> io::Result<Arc<Conn>> {
        // (A zero socket timeout is an error, not "no wait".)
        let timeout = timeout.max(Duration::from_millis(1));
        stream.set_timeouts(Some(timeout.min(READ_TICK)), Some(timeout))?;
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
            unflushed: AtomicBool::new(false),
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
    pub(crate) fn send(&self, frame: &WireFrame, flush: bool) -> Result<(), ProtocolError> {
        let mut w = self.wbuf.lock().expect("write buffer poisoned");
        let before = w.len();
        frame::encode_into(&mut w, frame);
        metrics::frame_observed("tx", (w.len() - before) as u64);
        if flush {
            self.write_out(&mut w)
        } else {
            // Release/Acquire with `flush`: the store happens under the
            // buffer's lock, after the bytes are in; a thread always
            // sees its own store, and it is its own frames it must flush.
            self.unflushed.store(true, Ordering::Release);
            Ok(())
        }
    }

    /// Writes out whatever is buffered. Called before a thread blocks
    /// and when a session ends.
    pub(crate) fn flush(&self) {
        if self.unflushed.load(Ordering::Acquire) {
            let mut w = self.wbuf.lock().expect("write buffer poisoned");
            let _ = self.write_out(&mut w);
        }
    }

    fn write_out(&self, w: &mut Vec<u8>) -> Result<(), ProtocolError> {
        if w.is_empty() {
            return Ok(());
        }
        self.unflushed.store(false, Ordering::Release);
        let written = (&self.stream).write_all(w);
        w.clear();
        written.map_err(|_| {
            // A failed or timed-out write may have torn a frame: the
            // byte stream is unusable from here on.
            self.stream.shutdown();
            ProtocolError::ChannelClosed
        })
    }

    /// Closes the socket; whoever reads next sees the end of the stream.
    pub(crate) fn shutdown(&self) {
        self.stream.shutdown();
    }

    /// Waits for the next frame addressed to `key`.
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
        match self.wait_event(key, deadline)? {
            Event::Frame(frame) => Ok(frame),
            Event::Run(_) => unreachable!("tasks are delivered to the connection inbox only"),
        }
    }

    /// [`wait`](Self::wait) for any kind of event.
    pub(crate) fn wait_event(
        self: &Arc<Self>,
        key: Key,
        deadline: Option<Instant>,
    ) -> Result<Event, ProtocolError> {
        loop {
            let mut st = self.lock();
            let (closed, reading) = (st.closed, st.reading);
            let Some(inbox) = st.inboxes.get_mut(&key) else {
                return self.leave(st, Err(ProtocolError::ChannelClosed));
            };
            inbox.sleeper = None;
            if let Some(event) = inbox.events.pop_front() {
                return self.leave(st, Ok(event));
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
                return self.read_for(key, deadline);
            }
            // Somebody else reads: sleep until an event is pushed or the
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
            let idle = |inbox: &Inbox| inbox.sleeper.is_some() && inbox.events.is_empty();
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

    /// Holds the read role until an event for `key` shows up, the
    /// deadline passes or the connection ends; releases it on return.
    fn read_for(
        self: &Arc<Self>,
        key: Key,
        deadline: Option<Instant>,
    ) -> Result<Event, ProtocolError> {
        let mut rbuf = self.rbuf.lock().expect("read buffer poisoned");
        loop {
            match self.route_buffered(&mut rbuf, key == CONN_KEY) {
                Ok(Some(session)) => return self.release(Ok(Event::Run(session))),
                Ok(None) => {}
                Err(e) => {
                    self.close(&e);
                    return Err(ProtocolError::ChannelClosed);
                }
            }
            let mut st = self.lock();
            let Some(inbox) = st.inboxes.get_mut(&key) else {
                drop(st);
                return self.release(Err(ProtocolError::ChannelClosed));
            };
            if let Some(event) = inbox.events.pop_front() {
                drop(st);
                return self.release(Ok(event));
            }
            drop(st);
            if expired(deadline) {
                return self.release(Err(ProtocolError::Timeout));
            }
            // Nothing for this waiter yet. What is buffered for writing
            // goes out before the `read` that may block.
            self.flush();
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
        while let Some(frame) = rbuf.parse()? {
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
        Ok(own)
    }

    /// Puts one frame where it belongs. Runs on the thread holding the
    /// read role; returns the task of a session the stray handler admitted.
    fn route(&self, frame: WireFrame) -> Option<Task> {
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
                for (_, inbox) in st
                    .inboxes
                    .iter_mut()
                    .filter(|(k, _)| k.0 == session && k.1 != 0)
                {
                    if let Some(thread) = inbox.push(Event::Frame(frame.clone())) {
                        thread.unpark();
                    }
                }
            }
            _ => {}
        }
        match st.inboxes.get_mut(&key) {
            Some(inbox) => {
                let woken = inbox.push(Event::Frame(frame));
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
            let error = WireFrame::Error {
                session: key.0,
                message: message.to_owned(),
            };
            if let Some(thread) = inbox.push(Event::Frame(error)) {
                thread.unpark();
            }
        }
    }

    /// Marks the connection over and wakes every sleeper. A framing
    /// violation (as opposed to a dead socket) is reported to the peer
    /// first: the byte stream has lost its frame boundaries.
    fn close(&self, why: &FrameError) {
        if matches!(why, FrameError::Oversized { .. } | FrameError::Malformed(_)) {
            let _ = self.send(
                &WireFrame::Error {
                    session: 0,
                    message: format!("protocol violation: {why}"),
                },
                true,
            );
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
    /// without waiting for anything — there is no background reader, so
    /// frames that arrive while nobody waits stay in the socket.
    pub(crate) fn poll(self: &Arc<Self>) {
        {
            let mut st = self.lock();
            if st.reading || st.closed {
                return;
            }
            st.reading = true;
        }
        let mut rbuf = self.rbuf.lock().expect("read buffer poisoned");
        let read = {
            // Non-blocking mode is a property of the socket, not of the
            // read: writers are held off while it is on.
            let _writers = self.wbuf.lock().expect("write buffer poisoned");
            let _ = self.stream.set_nonblocking(true);
            let read = loop {
                match rbuf.fill(&self.stream) {
                    Ok(true) => {}
                    Ok(false) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            let _ = self.stream.set_nonblocking(false);
            read
        };
        // What arrived ahead of the end of the stream (the server's
        // Goodbye) is routed before the end is acted on.
        let routed = self.route_buffered(&mut rbuf, false);
        drop(rbuf);
        match routed.and(read) {
            Ok(_) => self.release(()),
            Err(e) => self.close(&e),
        }
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
