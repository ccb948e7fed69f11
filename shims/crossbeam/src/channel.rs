//! Offline stand-in for `crossbeam-channel`, backed by `std::sync::mpsc`.
//!
//! Only the subset the workspace uses is vendored: `unbounded`/`bounded`
//! constructors, cloneable [`Sender`]s, and blocking/non-blocking/timed
//! receives. Crossbeam's `Receiver` is additionally `Clone + Sync`
//! (multi-consumer); the std-backed stand-in is single-consumer, which
//! matches the workspace's actor-style usage — every queue is drained by
//! exactly one worker thread. Swapping back to the real crate is a Cargo
//! change only.

use std::sync::mpsc;
use std::time::Duration;

/// Sending half of a channel; clone freely across producer threads.
pub struct Sender<T>(Flavor<T>);

/// std keeps unbounded and bounded senders apart; the stand-in carries
/// either behind the one crossbeam-style `Sender` type.
enum Flavor<T> {
    Unbounded(mpsc::Sender<T>),
    Bounded(mpsc::SyncSender<T>),
}

/// Both std senders are `Clone`; a manual impl avoids requiring `T: Clone`.
impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(match &self.0 {
            Flavor::Unbounded(tx) => Flavor::Unbounded(tx.clone()),
            Flavor::Bounded(tx) => Flavor::Bounded(tx.clone()),
        })
    }
}

/// Receiving half of a channel; owned by a single consumer.
pub struct Receiver<T>(mpsc::Receiver<T>);

/// The channel is disconnected: every receiver (for sends) or every sender
/// (for receives) has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why a blocking receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Why a non-blocking receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

/// Why a timed receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> Sender<T> {
    /// Blocks while the channel is full (bounded channels); errors only when
    /// every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.0 {
            Flavor::Unbounded(tx) => tx.send(value),
            Flavor::Bounded(tx) => tx.send(value),
        }
        .map_err(|mpsc::SendError(v)| SendError(v))
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.0.recv().map_err(|_| RecvError)
    }

    /// Returns immediately.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv().map_err(|e| match e {
            mpsc::TryRecvError::Empty => TryRecvError::Empty,
            mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Blocks for at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.0.recv_timeout(timeout).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
            mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
        })
    }

    /// Drains every message currently in the queue without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.try_recv().ok())
    }
}

/// A channel with unlimited buffering (sends never block). Its storage
/// grows with the messages actually queued; a bounded channel's is
/// allocated up front, one slot per message of capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender(Flavor::Unbounded(tx)), Receiver(rx))
}

/// A channel holding at most `cap` queued messages; sends block when full.
/// `cap = 0` gives a rendezvous channel.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(cap);
    (Sender(Flavor::Bounded(tx)), Receiver(rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn multi_producer_single_consumer() {
        let (tx, rx) = unbounded::<u32>();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn disconnection_is_observable() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));

        let (tx, rx) = bounded::<u8>(1);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn timed_and_nonblocking_receives() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Timeout));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2]);
    }
}
