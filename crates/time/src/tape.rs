//! Process-wide memoized standard-normal streams ("jitter tapes").
//!
//! After its start-up phase draw, a [`DomainClock`](crate::DomainClock)'s
//! generator is used for one thing only: standard normal variates, scaled
//! into cycle jitter ([`JitterModel::sample`](crate::JitterModel::sample))
//! or Transmeta PLL lock times
//! ([`PllModel::sample_lock_time`](crate::PllModel::sample_lock_time)). So
//! the k-th variate a clock consumes is a pure function of its post-phase
//! generator state, and every run starting from that state consumes a
//! prefix of one fixed sequence. Clock seeds derive from the machine seed
//! alone, so all runs of a campaign cell draw from at most four such
//! sequences, and each run used to recompute its prefix (two uniforms, a
//! `ln` and a `sqrt` per pair of variates).
//!
//! A tape is that sequence, computed once per process by the exact
//! [`SimRng::gaussian`] code and stored in fixed-size chunks that are
//! generated on demand. A `NormalStream` reads a tape through a cursor;
//! callers scale each value with the same `mean + sd * g` expression as
//! [`SimRng::normal`], so a tape-backed clock is bit-identical to one that
//! draws from a private generator.
//!
//! Tapes live in a registry keyed by the generator's state words, not by
//! the seed that produced them. Like the pipeline's warm-state cache, the
//! registry is bounded by clearing it on overflow, which costs only a
//! recompute: cursors keep their tapes alive. A tape also stops growing
//! after `MAX_CHUNKS` chunks; a cursor that reaches its end continues
//! from a private copy of the generator state there, so memory per tape is
//! bounded however long a run lasts.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::rng::{SimRng, StreamKey};

/// A source of standard normal variates.
///
/// Implemented by [`SimRng`] (computing each variate) and by the clocks'
/// tape cursors (reading it from a shared tape). Both produce the same
/// sequence from the same generator state.
pub trait NormalSource {
    /// Next standard normal variate (mean 0, σ 1).
    fn gaussian(&mut self) -> f64;

    /// Normal variate with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }
}

impl NormalSource for SimRng {
    fn gaussian(&mut self) -> f64 {
        SimRng::gaussian(self)
    }
}

/// Variates per tape chunk (32 KiB).
const CHUNK_LEN: usize = 4096;

/// Chunks after which a tape stops growing: 2^20 variates, 8 MiB. A
/// paper-window (240k-instruction) run draws at most about 700k per clock
/// (mcf, whose 1 GHz baseline run lasts 700 µs).
const MAX_CHUNKS: usize = 256;

/// Bound on registered tapes: four clocks for each of four machine seeds.
const MAX_TAPES: usize = 16;

/// One memoized standard-normal sequence.
struct Tape {
    growth: Mutex<Growth>,
}

struct Growth {
    chunks: Vec<Arc<[f64]>>,
    /// Generator state just past the last stored variate.
    rng: SimRng,
}

impl Tape {
    fn new(origin: SimRng) -> Self {
        Tape {
            growth: Mutex::new(Growth {
                chunks: Vec::new(),
                rng: origin,
            }),
        }
    }

    /// Chunk number `index`, generating it (and any before it) on first
    /// use; `None` past the tape's last chunk.
    fn chunk(&self, index: usize) -> Option<Arc<[f64]>> {
        if index >= MAX_CHUNKS {
            return None;
        }
        let mut g = self.growth.lock().expect("jitter tape poisoned");
        while g.chunks.len() <= index {
            let rng = &mut g.rng;
            let chunk: Arc<[f64]> = (0..CHUNK_LEN).map(|_| rng.gaussian()).collect();
            g.chunks.push(chunk);
        }
        Some(Arc::clone(&g.chunks[index]))
    }

    /// The generator state just past the tape's final variate. Only called
    /// by a cursor that has read the final chunk, so the tape is full.
    fn continuation(&self) -> SimRng {
        let g = self.growth.lock().expect("jitter tape poisoned");
        assert_eq!(
            g.chunks.len(),
            MAX_CHUNKS,
            "tape continued before it was full"
        );
        g.rng.clone()
    }
}

static REGISTRY: OnceLock<Mutex<HashMap<StreamKey, Arc<Tape>>>> = OnceLock::new();

/// The process-wide tape of the sequence `origin` generates.
fn tape_for(origin: &SimRng) -> Arc<Tape> {
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().expect("jitter tape registry poisoned");
    let key = origin.stream_key();
    if let Some(tape) = map.get(&key) {
        return Arc::clone(tape);
    }
    if map.len() >= MAX_TAPES {
        map.clear();
    }
    let tape = Arc::new(Tape::new(origin.clone()));
    map.insert(key, Arc::clone(&tape));
    tape
}

/// A cursor over the standard normals a generator state yields, read from
/// the process-wide tape of that state or, once detached, computed by a
/// private generator.
#[derive(Clone)]
pub(crate) struct NormalStream {
    /// Generator state before the first variate.
    origin: SimRng,
    source: Source,
}

#[derive(Clone)]
enum Source {
    /// Reading `tape`: the next variate is `chunk[pos]`, and `next` is the
    /// number of the chunk after `chunk`.
    Tape {
        tape: Arc<Tape>,
        chunk: Arc<[f64]>,
        next: usize,
        pos: usize,
    },
    /// Computing variates from a private generator.
    Private(SimRng),
}

impl NormalStream {
    /// A stream of the variates `origin` generates, read from the
    /// process-wide tape of `origin`'s state.
    pub(crate) fn shared(origin: SimRng) -> Self {
        let tape = tape_for(&origin);
        NormalStream::on_tape(origin, tape)
    }

    /// Variates consumed so far.
    fn position(&self) -> Option<usize> {
        match &self.source {
            Source::Tape {
                chunk, next, pos, ..
            } => Some(next * CHUNK_LEN - chunk.len() + pos),
            Source::Private(_) => None,
        }
    }

    /// Continues from a private generator at the same position; later
    /// variates are computed, never read from a tape.
    pub(crate) fn detach(&mut self) {
        let Some(drawn) = self.position() else {
            return;
        };
        let mut rng = self.origin.clone();
        for _ in 0..drawn {
            rng.gaussian();
        }
        self.source = Source::Private(rng);
    }

    /// Reads `tape` from its start.
    fn on_tape(origin: SimRng, tape: Arc<Tape>) -> Self {
        NormalStream {
            origin,
            source: Source::Tape {
                tape,
                chunk: Arc::from(Vec::new()),
                next: 0,
                pos: 0,
            },
        }
    }

    #[inline(never)]
    fn gaussian_slow(&mut self) -> f64 {
        loop {
            match &mut self.source {
                Source::Tape {
                    tape,
                    chunk,
                    next,
                    pos,
                } => {
                    if let Some(&g) = chunk.get(*pos) {
                        *pos += 1;
                        return g;
                    }
                    match tape.chunk(*next) {
                        Some(c) => {
                            *chunk = c;
                            *next += 1;
                            *pos = 0;
                        }
                        None => self.source = Source::Private(tape.continuation()),
                    }
                }
                Source::Private(rng) => return rng.gaussian(),
            }
        }
    }
}

impl NormalSource for NormalStream {
    #[inline]
    fn gaussian(&mut self) -> f64 {
        if let Source::Tape { chunk, pos, .. } = &mut self.source {
            if let Some(&g) = chunk.get(*pos) {
                *pos += 1;
                return g;
            }
        }
        self.gaussian_slow()
    }
}

impl fmt::Debug for NormalStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.source {
            Source::Tape { .. } => "tape",
            Source::Private(_) => "private",
        };
        f.debug_struct("NormalStream")
            .field("mode", &mode)
            .field("position", &self.position())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::thread;

    use super::*;

    fn computed(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gaussian()).collect()
    }

    fn taped(seed: u64, n: usize) -> Vec<f64> {
        let mut s = NormalStream::shared(SimRng::seed_from_u64(seed));
        (0..n).map(|_| s.gaussian()).collect()
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn tape_matches_the_generator_across_chunk_boundaries() {
        let n = 3 * CHUNK_LEN + 17;
        for seed in [0x7a9e_0001, 0x7a9e_0002, 0x7a9e_0003] {
            assert!(
                same_bits(&taped(seed, n), &computed(seed, n)),
                "seed {seed}"
            );
            // A second reader of the now-grown tape sees the same values.
            assert!(
                same_bits(&taped(seed, n), &computed(seed, n)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn stored_generator_state_continues_the_tape() {
        let mut rng = SimRng::seed_from_u64(0x7a9e_0010);
        let mut tape = Tape::new(rng.clone());
        let want: Vec<f64> = (0..2 * CHUNK_LEN).map(|_| rng.gaussian()).collect();
        let got: Vec<f64> = (0..2)
            .flat_map(|i| tape.chunk(i).expect("within cap").to_vec())
            .collect();
        assert!(same_bits(&got, &want));
        let g = tape.growth.get_mut().expect("not poisoned");
        assert_eq!(g.chunks.len(), 2);
        assert_eq!(g.rng.gaussian().to_bits(), rng.gaussian().to_bits());
    }

    #[test]
    fn detach_resumes_at_the_same_position() {
        let seed = 0x7a9e_0020;
        let want = computed(seed, CHUNK_LEN + 10);
        let mut s = NormalStream::shared(SimRng::seed_from_u64(seed));
        let mut got: Vec<f64> = (0..CHUNK_LEN + 3).map(|_| s.gaussian()).collect();
        s.detach();
        assert_eq!(s.position(), None);
        got.extend((0..7).map(|_| s.gaussian()));
        assert!(same_bits(&got, &want));
    }

    #[test]
    fn a_full_tape_continues_from_its_final_generator_state() {
        let seed = 0x7a9e_0030;
        let n = MAX_CHUNKS * CHUNK_LEN + 5;
        let mut s = NormalStream::shared(SimRng::seed_from_u64(seed));
        let got: Vec<f64> = (0..n).map(|_| s.gaussian()).collect();
        assert_eq!(s.position(), None, "past the cap the stream is private");
        assert!(same_bits(&got, &computed(seed, n)));
    }

    #[test]
    fn concurrent_growth_yields_identical_values() {
        let origin = SimRng::seed_from_u64(0x7a9e_0040);
        let tape = Arc::new(Tape::new(origin.clone()));
        let barrier = Arc::new(Barrier::new(2));
        let n = 4 * CHUNK_LEN;
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let mut s = NormalStream::on_tape(origin.clone(), Arc::clone(&tape));
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    // Neither cursor draws until both are released
                    // together, so both race to grow every chunk of the
                    // still-empty tape.
                    barrier.wait();
                    (0..n).map(|_| s.gaussian()).collect::<Vec<f64>>()
                })
            })
            .collect();
        let mut results = readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"));
        let (a, b) = (results.next().expect("two"), results.next().expect("two"));
        let mut rng = origin;
        let want: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        assert!(same_bits(&a, &want));
        assert!(same_bits(&b, &want));
    }

    #[test]
    fn registry_overflow_clears_and_draws_stay_identical() {
        let seed = 0x7a9e_0050;
        let origin = SimRng::seed_from_u64(seed);
        let before = tape_for(&origin);
        let n = CHUNK_LEN + 1;
        let first = taped(seed, n);
        // MAX_TAPES fresh keys cannot all fit beside `seed`'s entry, so the
        // registry must have been cleared at least once in between.
        for k in 1..=MAX_TAPES as u64 {
            let _ = tape_for(&SimRng::seed_from_u64(seed + k));
        }
        let after = tape_for(&origin);
        assert!(!Arc::ptr_eq(&before, &after), "registry was not cleared");
        assert!(same_bits(&taped(seed, n), &first));
        assert!(same_bits(&first, &computed(seed, n)));
    }

    #[test]
    fn registry_keys_by_generator_state_not_seed() {
        // Two generators with one state share a tape however they were made.
        let a = SimRng::seed_from_u64(0x7a9e_0060);
        let b = a.clone();
        assert!(Arc::ptr_eq(&tape_for(&a), &tape_for(&b)));
        let mut c = a.clone();
        c.next_u64();
        assert!(!Arc::ptr_eq(&tape_for(&a), &tape_for(&c)));
    }
}
