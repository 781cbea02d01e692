//! The breaker bank: commanded coils, mechanical position feedback, and
//! operate delays.
//!
//! Real breakers do not change state instantaneously: the coil command is
//! issued, the mechanism operates a few tens of milliseconds later, and
//! only then does the position feedback contact change. The §V reaction-
//! time measurement depends on this ordering (flip command → mechanical
//! operate → SCADA observes feedback → HMI updates).

use simnet::time::{SimDuration, SimTime};

/// State of one breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Breaker {
    /// The commanded state (true = closed). Written by coil writes.
    pub commanded: bool,
    /// The actual mechanical position (true = closed).
    pub position: bool,
    /// When a pending operation completes, if one is in flight.
    pub operating_until: Option<SimTime>,
    /// Total number of completed operations.
    pub operations: u64,
}

impl Breaker {
    fn new(closed: bool) -> Self {
        Breaker {
            commanded: closed,
            position: closed,
            operating_until: None,
            operations: 0,
        }
    }
}

/// A bank of breakers with a common operate delay.
#[derive(Clone, Debug)]
pub struct BreakerBank {
    breakers: Vec<Breaker>,
    operate_delay: SimDuration,
}

impl BreakerBank {
    /// Creates `count` breakers, all initially closed, with the given
    /// mechanical operate delay.
    pub fn new(count: usize, operate_delay: SimDuration) -> Self {
        BreakerBank {
            breakers: vec![Breaker::new(true); count],
            operate_delay,
        }
    }

    /// Number of breakers.
    pub fn len(&self) -> usize {
        self.breakers.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.breakers.is_empty()
    }

    /// Commands breaker `idx` to `closed` at time `now`. No-op if already
    /// commanded to that state. Returns whether the command was accepted.
    pub fn command(&mut self, idx: usize, closed: bool, now: SimTime) -> bool {
        let Some(b) = self.breakers.get_mut(idx) else {
            return false;
        };
        if b.commanded == closed {
            return true;
        }
        b.commanded = closed;
        b.operating_until = Some(now + self.operate_delay);
        true
    }

    /// Advances mechanics: any operation whose delay has elapsed moves the
    /// position to the commanded state. Returns indices that changed.
    pub fn step(&mut self, now: SimTime) -> Vec<usize> {
        let mut changed = Vec::new();
        for (i, b) in self.breakers.iter_mut().enumerate() {
            if let Some(t) = b.operating_until {
                if t <= now {
                    b.operating_until = None;
                    if b.position != b.commanded {
                        b.position = b.commanded;
                        b.operations += 1;
                        changed.push(i);
                    }
                }
            }
        }
        changed
    }

    /// The mechanical positions (the ground truth SCADA reads back), in
    /// breaker order.
    pub fn positions(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.breakers.iter().map(|b| b.position)
    }

    /// The commanded states (the coil values).
    pub fn commanded(&self) -> Vec<bool> {
        self.breakers.iter().map(|b| b.commanded).collect()
    }

    /// Read access to one breaker.
    pub fn breaker(&self, idx: usize) -> Option<&Breaker> {
        self.breakers.get(idx)
    }

    /// Forces the mechanical position directly (field crew / physical
    /// trip), bypassing the command path.
    pub fn force_position(&mut self, idx: usize, closed: bool) -> bool {
        if let Some(b) = self.breakers.get_mut(idx) {
            b.position = closed;
            b.commanded = closed;
            b.operating_until = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BreakerBank {
        BreakerBank::new(3, SimDuration::from_millis(40))
    }

    #[test]
    fn command_takes_effect_after_delay() {
        let mut b = bank();
        assert!(b.command(0, false, SimTime(0)));
        // Immediately after the command, position unchanged.
        assert_eq!(b.step(SimTime(10_000)), Vec::<usize>::new());
        assert!(b.breaker(0).expect("idx").position);
        // After the operate delay, the position follows.
        assert_eq!(b.step(SimTime(40_000)), vec![0]);
        assert!(!b.breaker(0).expect("idx").position);
        assert_eq!(b.breaker(0).expect("idx").operations, 1);
    }

    #[test]
    fn redundant_command_is_noop() {
        let mut b = bank();
        assert!(b.command(1, true, SimTime(0))); // already closed
        assert!(b.step(SimTime(100_000)).is_empty());
        assert_eq!(b.breaker(1).expect("idx").operations, 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = bank();
        assert!(!b.command(9, false, SimTime(0)));
        assert!(!b.force_position(9, false));
        assert!(b.breaker(9).is_none());
    }

    #[test]
    fn command_flip_before_operate_settles_to_last() {
        let mut b = bank();
        b.command(0, false, SimTime(0));
        b.command(0, true, SimTime(10_000)); // re-close before it opened
        let changed = b.step(SimTime(100_000));
        // Position was already closed; commanded is closed: no change fires.
        assert!(changed.is_empty());
        assert!(b.breaker(0).expect("idx").position);
    }

    #[test]
    fn force_position_is_immediate() {
        let mut b = bank();
        assert!(b.force_position(2, false));
        assert!(!b.breaker(2).expect("idx").position);
        assert!(!b.commanded()[2]);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(bank().len(), 3);
        assert!(!bank().is_empty());
        assert!(BreakerBank::new(0, SimDuration::ZERO).is_empty());
    }
}
