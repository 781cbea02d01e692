//! Deterministic chaos engine for the Spire reproduction.
//!
//! The paper's deployments (DSN 2019, §V–§VI) survived a red team and six
//! days of continuous plant operation. This crate turns that survivability
//! claim into a *checked* property: seed-deterministic fault schedules
//! ([`plan`]) are executed against a full deployment ([`driver`]) while
//! the paper's guarantees are continuously asserted ([`invariants`]) —
//! safety always, liveness whenever the injected faults fit the `f`/`k`
//! budget the system was configured to tolerate.
//!
//! Everything is deterministic: plans are pure functions of a seed, every
//! injection/heal/violation is journaled into the run digest, and the same
//! seed replays the same soak byte-for-byte. See `EXPERIMENTS.md` (E12)
//! for the chaos-soak experiment built on this crate.
//!
//! The journal is the run's one record: the driver journals every
//! injection and heal, the checker every violation and every replica
//! that caught back up. A consumer that must *react* to chaos (the
//! `response` controller) tails it with `obs::ObsHub::journal_since`.

pub mod driver;
pub mod invariants;
pub mod plan;
