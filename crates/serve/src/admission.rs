//! Admission control at the server's two doors.
//!
//! - [`Connections`] bounds open connections: each holds a thread
//!   blocked in its socket, so the acceptor sheds past the bound. It
//!   keeps a clone of every socket, so that drain can wake readers
//!   blocked between requests.
//! - [`Gate`] bounds requests in handling: one permit per shard, with
//!   at most `max_waiters` callers blocked for one. Past that a request
//!   is refused at once, and the caller sheds it with `503`.
//!
//! Every update leaves the counts and the table valid, so a poisoned
//! lock is mapped back to its inner value rather than panicking a
//! connection thread.

use std::net::{Shutdown, TcpStream};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`Gate::acquire`] refused a caller.
#[derive(Debug, PartialEq, Eq)]
pub enum Refused {
    /// Every permit is held and the wait list is full: shed.
    Full,
    /// The gate was closed for drain: admit nothing new.
    Closed,
}

struct GateState {
    held: usize,
    waiting: usize,
    closed: bool,
}

/// A counting gate of `permits` slots with a bounded wait list.
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    permits: usize,
    max_waiters: usize,
}

/// A held slot of a [`Gate`]; dropping it hands the slot on.
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    pub fn new(permits: usize, max_waiters: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                held: 0,
                waiting: 0,
                closed: false,
            }),
            changed: Condvar::new(),
            permits: permits.max(1),
            max_waiters: max_waiters.max(1),
        }
    }

    fn guard(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Take a permit, blocking while all are held. Refused at once when
    /// `max_waiters` callers already wait, or once drain began.
    pub fn acquire(&self) -> Result<Permit<'_>, Refused> {
        let mut s = self.guard();
        if s.closed {
            return Err(Refused::Closed);
        }
        if s.held >= self.permits {
            if s.waiting >= self.max_waiters {
                return Err(Refused::Full);
            }
            s.waiting += 1;
            while s.held >= self.permits {
                s = self.changed.wait(s).unwrap_or_else(|p| p.into_inner());
            }
            s.waiting -= 1;
        }
        s.held += 1;
        Ok(Permit { gate: self })
    }

    /// Callers blocked waiting for a permit (the queue-depth gauge).
    pub fn waiting(&self) -> usize {
        self.guard().waiting
    }

    /// Close the gate to new callers, then block until every admitted
    /// one — holding a permit or waiting for one — has finished.
    pub fn close_and_wait(&self) {
        let mut s = self.guard();
        s.closed = true;
        while s.held > 0 || s.waiting > 0 {
            s = self.changed.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.guard();
        s.held = s.held.saturating_sub(1);
        let closed = s.closed;
        drop(s);
        if closed {
            // Wake the drainer as well as a waiter.
            self.gate.changed.notify_all();
        } else {
            self.gate.changed.notify_one();
        }
    }
}

/// The open-connection table: `cap` slots, each empty or holding a
/// clone of one open connection's socket. A slot's index is its id.
pub struct Connections {
    slots: Mutex<Vec<Option<TcpStream>>>,
}

impl Connections {
    pub fn new(cap: usize) -> Self {
        Connections {
            slots: Mutex::new((0..cap).map(|_| None).collect()),
        }
    }

    fn guard(&self) -> MutexGuard<'_, Vec<Option<TcpStream>>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a clone of a new connection's socket and return its
    /// id; `None` when every slot is taken.
    pub fn open(&self, clone: TcpStream) -> Option<usize> {
        let mut slots = self.guard();
        let (id, free) = slots.iter_mut().enumerate().find(|(_, s)| s.is_none())?;
        *free = Some(clone);
        Some(id)
    }

    /// Empty a connection's slot, handing back its socket clone. The
    /// socket closes only once the thread's handle and this clone are
    /// both gone.
    pub fn remove(&self, id: usize) -> Option<TcpStream> {
        self.guard().get_mut(id).and_then(Option::take)
    }

    /// `shutdown(Read)` every open socket: a blocked read returns
    /// end-of-stream, and so does every later one.
    pub fn wake_readers(&self) {
        for stream in self.guard().iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Spin until `cond` holds: forces an interleaving without sleeping.
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_grants_up_to_its_permits_then_waits() {
        let gate = Gate::new(2, 4);
        let a = gate.acquire().expect("first permit");
        let _b = gate.acquire().expect("second permit");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire().map(|_| ()));
            wait_until(|| gate.waiting() == 1);
            drop(a);
            assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
        });
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn gate_sheds_past_its_waiter_bound() {
        let gate = Gate::new(1, 1);
        let held = gate.acquire().expect("only permit");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire().map(|_| ()));
            wait_until(|| gate.waiting() == 1);
            assert_eq!(gate.acquire().err(), Some(Refused::Full));
            assert_eq!(gate.acquire().err(), Some(Refused::Full));
            drop(held);
            assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
        });
    }

    #[test]
    fn drain_refuses_newcomers_and_waits_for_admitted_callers() {
        let gate = Gate::new(1, 1);
        let held = gate.acquire().expect("only permit");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire().map(|_| ()));
            wait_until(|| gate.waiting() == 1);
            let drainer = s.spawn(|| gate.close_and_wait());
            // With the permit held and the wait list full, `acquire`
            // answers at once: Full until the drain closes the gate.
            wait_until(|| gate.acquire().err() == Some(Refused::Closed));
            assert!(!drainer.is_finished(), "drain waits for the holder");
            drop(held);
            assert_eq!(
                waiter.join().expect("waiter thread"),
                Ok(()),
                "a caller waiting before the drain is served"
            );
            drainer.join().expect("drainer thread");
        });
        assert_eq!(gate.acquire().err(), Some(Refused::Closed));
    }

    #[test]
    fn released_permit_wakes_a_waiter_on_another_thread() {
        let gate = Gate::new(1, 1);
        let held = gate.acquire().expect("only permit");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let _permit = gate.acquire().expect("woken waiter gets the permit");
                gate.waiting()
            });
            wait_until(|| gate.waiting() == 1);
            s.spawn(move || drop(held)).join().expect("releaser thread");
            assert_eq!(waiter.join().expect("waiter thread"), 0);
        });
    }

    /// `n` connected loopback pairs: (client end, server end).
    fn socket_pairs(n: usize) -> Vec<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (0..n)
            .map(|_| {
                let client = TcpStream::connect(addr).expect("connect");
                let (server, _) = listener.accept().expect("accept");
                (client, server)
            })
            .collect()
    }

    #[test]
    fn connection_table_is_bounded_and_frees_slots() {
        let pairs = socket_pairs(3);
        let table = Connections::new(2);
        let clone = |i: usize| pairs[i].1.try_clone().expect("clone");
        let a = table.open(clone(0)).expect("first slot");
        let b = table.open(clone(1)).expect("second slot");
        assert_ne!(a, b);
        assert!(table.open(clone(2)).is_none(), "past the bound");
        assert!(table.remove(a).is_some());
        assert!(table.open(clone(2)).is_some(), "a freed slot is reused");
    }

    #[test]
    fn wake_readers_ends_blocked_reads_with_end_of_stream() {
        let (_client, server) = socket_pairs(1).remove(0);
        let table = Connections::new(1);
        table
            .open(server.try_clone().expect("clone"))
            .expect("slot");
        std::thread::scope(|s| {
            let reader = s.spawn(|| (&server).read(&mut [0u8; 1]).map_err(|e| e.kind()));
            table.wake_readers();
            assert_eq!(reader.join().expect("reader thread"), Ok(0));
        });
    }
}
