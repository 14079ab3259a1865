//! The deliberately-naive reference interpreter.
//!
//! This is the differential oracle's "obviously correct" half: a
//! straight-line event loop over the same tick machinery as the optimized
//! engine, with every engineering shortcut removed:
//!
//! - no [`EdgeScheduler`](crate::sched::EdgeScheduler) — the earliest
//!   pending edge is found by a linear scan with the same lowest-index
//!   tie-break;
//! - no idle-domain fast-forward — every single edge runs the full
//!   selection and tick path;
//! - no process-wide warm-state cache — the warm-up stream is rebuilt from
//!   scratch for every run;
//! - no process-wide jitter tapes — every clock computes its jitter and
//!   PLL lock-time draws from a private generator
//!   ([`DomainClock::use_private_stream`](mcd_time::DomainClock::use_private_stream));
//! - no incremental operating-point bookkeeping — cached frequencies,
//!   voltages, periods and the §2.2 synchronization-window matrix are
//!   recomputed wholesale from the clocks after every edge.
//!
//! The claim under test is that all of those shortcuts are results-neutral:
//! for any configuration, [`Pipeline::run_reference`] and [`Pipeline::run`]
//! produce byte-identical [`RunResult`]s. `mcd-check` drives that
//! comparison across a configuration lattice and a seeded fuzzer.
//!
//! Tracing is unsupported here (the optimized loop already proves
//! trace-neutrality against itself); attaching a sink before a reference
//! run panics in debug builds and is ignored in release builds. Under the
//! `invariants` feature an armed checker is likewise ignored — invariants
//! are checked on the *optimized* loop, which is the one with shortcuts to
//! audit.

use mcd_time::{Femtos, SyncWindowCache};

use crate::domains::DomainId;
use crate::governor::{Governor, NoGovernor};
use crate::result::RunResult;

use super::{Pipeline, MAX_EDGES_PER_INSTRUCTION};

impl Pipeline {
    /// Runs the naive reference interpreter until `target` instructions
    /// commit; consumes the pipeline. See `core/reference.rs`'s module
    /// docs for what "reference" means.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (internal invariant violation).
    pub fn run_reference(self, target: u64) -> RunResult {
        self.run_reference_impl::<NoGovernor>(target, None)
    }

    /// [`Pipeline::run_reference`] under an on-line DVFS governor; the
    /// reference counterpart of [`Pipeline::run_with_governor`].
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (internal invariant violation).
    pub fn run_reference_with_governor<G: Governor>(
        mut self,
        target: u64,
        mut governor: G,
    ) -> RunResult {
        self.control_next = governor.interval();
        self.run_reference_impl(target, Some(&mut governor))
    }

    /// The naive event loop. Mirrors [`Pipeline::run_impl`] decision for
    /// decision, minus every shortcut.
    fn run_reference_impl<G: Governor>(
        mut self,
        target: u64,
        mut governor: Option<&mut G>,
    ) -> RunResult {
        assert!(target > 0, "target instruction count must be positive");
        debug_assert!(
            self.tracer.is_none(),
            "the reference interpreter does not support trace sinks"
        );
        self.target = target;
        if self.cfg.warmup_instructions > 0 {
            // Same stream length as the optimized path, but built fresh —
            // the process-wide cache is one of the shortcuts under test.
            let n = self
                .cfg
                .warmup_instructions
                .max(self.gen.profile().cycle_length() + 10_000);
            let state = self.build_warm_state(n);
            self.l1i = state.l1i;
            self.l1d = state.l1d;
            self.l2 = state.l2;
            self.bpred = state.bpred;
        }
        // Every jitter and PLL lock-time draw is computed from the clock's
        // own generator — the process-wide tape is another shortcut.
        for clock in &mut self.clocks {
            clock.use_private_stream();
        }
        let n_clocks = self.clocks.len();
        let mut pending: Vec<Femtos> = Vec::with_capacity(n_clocks);
        for i in 0..n_clocks {
            pending.push(self.clocks[i].next_edge());
        }
        self.refresh_operating_points();
        let mut edges: u64 = 0;
        let max_edges = target
            .saturating_mul(MAX_EDGES_PER_INSTRUCTION)
            .max(1_000_000);
        while self.committed < target {
            edges += 1;
            assert!(
                edges < max_edges,
                "pipeline deadlock: {} of {} committed after {} edges",
                self.committed,
                target,
                edges
            );
            // Earliest pending clock edge wins; strict `<` keeps the first
            // (lowest-indexed) clock on ties, matching the EdgeScheduler's
            // tie-break contract.
            let mut ci = 0;
            for (i, &t) in pending.iter().enumerate().skip(1) {
                if t < pending[ci] {
                    ci = i;
                }
            }
            let now = pending[ci];
            self.apply_schedule(now);
            if let Some(g) = governor.as_mut() {
                self.sample_utilization(ci, n_clocks);
                if now >= self.control_next {
                    self.control_decision(now, &mut **g);
                }
            }
            if n_clocks == 1 {
                // Single clock: all logical domains tick on the same edge.
                self.tick_commit_dispatch_fetch(now);
                self.tick_exec(DomainId::Integer, now);
                self.tick_exec(DomainId::FloatingPoint, now);
                self.tick_loadstore(now);
            } else {
                match DomainId::ALL[ci] {
                    DomainId::FrontEnd => self.tick_commit_dispatch_fetch(now),
                    DomainId::Integer => self.tick_exec(DomainId::Integer, now),
                    DomainId::FloatingPoint => self.tick_exec(DomainId::FloatingPoint, now),
                    DomainId::LoadStore => self.tick_loadstore(now),
                }
            }
            pending[ci] = self.clocks[ci].next_edge();
            self.refresh_operating_points();
        }
        self.into_result()
    }

    /// Recomputes every cached operating-point value wholesale from the
    /// clocks: per-clock frequency/voltage, per-domain period/voltage, and
    /// a freshly built synchronization-window matrix. The optimized loop
    /// maintains the same values incrementally in
    /// [`Pipeline::note_clock_advanced`]; this is the no-bookkeeping
    /// equivalent.
    fn refresh_operating_points(&mut self) {
        for (i, c) in self.clocks.iter().enumerate() {
            self.clock_freq[i] = c.frequency();
            self.clock_volt[i] = c.voltage().as_volts();
        }
        for d in 0..DomainId::COUNT {
            let ci = if self.single_clock { 0 } else { d };
            self.periods[d] = self.clocks[ci].period();
            self.volts[d] = self.clock_volt[ci];
        }
        self.sync_win = SyncWindowCache::new(self.cfg.sync, &self.periods);
    }
}
