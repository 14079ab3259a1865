//! The flat, shift/mask-indexed [`Cache`] and the O(1)-lookup
//! [`LoadStoreQueue`] checked step by step against deliberately naive
//! models kept here: a nested `Vec` per set indexed by division, and a
//! linearly searched list of entries.

use proptest::prelude::*;

use mcd_uarch::lsq::LoadStatus;
use mcd_uarch::{Cache, CacheConfig, CacheStats, LoadStoreQueue, LsqEntryId, MemAccessKind};

#[derive(Debug, Clone, Copy)]
struct ModelLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// What a cache must do, written as plainly as possible.
struct ModelCache {
    config: CacheConfig,
    sets: Vec<Vec<ModelLine>>,
    stats: CacheStats,
    tick: u64,
}

/// The outcome of one model access: hit, and the line evicted on a miss.
struct ModelAccess {
    hit: bool,
    evicted: Option<u64>,
}

impl ModelCache {
    fn new(config: CacheConfig) -> Self {
        let invalid = ModelLine {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };
        ModelCache {
            config,
            sets: vec![vec![invalid; config.ways as usize]; config.sets() as usize],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let sets = self.config.sets();
        ((line % sets) as usize, line / sets)
    }

    /// The address of the first byte of `tag`'s line in `set`.
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.config.sets() + set as u64) * self.config.line_bytes
    }

    fn access(&mut self, addr: u64, is_write: bool) -> ModelAccess {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                line.dirty |= is_write;
                return ModelAccess {
                    hit: true,
                    evicted: None,
                };
            }
        }
        self.stats.misses += 1;
        // The first invalid way; else the first way with the smallest
        // last-touch time.
        let ways = &self.sets[set];
        let mut victim = None;
        for (i, line) in ways.iter().enumerate() {
            if !line.valid {
                victim = Some(i);
                break;
            }
        }
        let victim = victim.unwrap_or_else(|| {
            let mut best = 0;
            for (i, line) in ways.iter().enumerate() {
                if line.lru < ways[best].lru {
                    best = i;
                }
            }
            best
        });
        let old = ways[victim];
        if old.valid && old.dirty {
            self.stats.writebacks += 1;
        }
        let evicted = old.valid.then(|| self.line_addr(set, old.tag));
        self.sets[set][victim] = ModelLine {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        ModelAccess {
            hit: false,
            evicted,
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set {
                line.valid = false;
                line.dirty = false;
            }
        }
    }

    /// Addresses of every resident line of `addr`'s set.
    fn residents(&self, addr: u64) -> Vec<u64> {
        let (set, _) = self.set_and_tag(addr);
        self.sets[set]
            .iter()
            .filter(|l| l.valid)
            .map(|l| self.line_addr(set, l.tag))
            .collect()
    }
}

/// The paper's three geometries plus a 4-way one.
fn geometries() -> [CacheConfig; 4] {
    [
        CacheConfig::l1d_paper(),
        CacheConfig::l1i_paper(),
        CacheConfig::l2_paper(),
        CacheConfig {
            size_bytes: 32 << 10,
            ways: 4,
            line_bytes: 64,
        },
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LsqOp {
    Allocate(MemAccessKind),
    SetAddress { nth: usize, word: u64 },
    Issue { nth: usize },
    Release,
}

fn lsq_op(code: u8, nth: usize, word: u64) -> LsqOp {
    match code {
        0..=2 => LsqOp::Allocate(MemAccessKind::Load),
        3..=4 => LsqOp::Allocate(MemAccessKind::Store),
        5..=7 => LsqOp::SetAddress { nth, word },
        8 => LsqOp::Issue { nth },
        _ => LsqOp::Release,
    }
}

#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    id: LsqEntryId,
    kind: MemAccessKind,
    addr: Option<u64>,
    issued: bool,
}

/// The load/store queue's scheduler view, by a linear scan of everything
/// older than `entries[i]`.
fn model_load_status(entries: &[ModelEntry], i: usize) -> LoadStatus {
    let load = entries[i];
    if load.issued {
        return LoadStatus::AlreadyIssued;
    }
    let Some(addr) = load.addr else {
        return LoadStatus::WaitingForAddress;
    };
    let older_stores: Vec<&ModelEntry> = entries[..i]
        .iter()
        .filter(|e| e.kind == MemAccessKind::Store)
        .collect();
    if older_stores.iter().any(|e| e.addr.is_none()) {
        return LoadStatus::WaitingForOlderStores;
    }
    match older_stores
        .iter()
        .rev()
        .find(|e| e.addr.map(|a| a & !7) == Some(addr & !7))
    {
        Some(store) => LoadStatus::ReadyForwarded { store: store.id },
        None => LoadStatus::ReadyFromCache,
    }
}

proptest! {
    #[test]
    fn flat_cache_matches_the_nested_model(
        ops in proptest::collection::vec((0u8..10, 0u64..8, 0u64..4, 0u64..64), 1..300),
    ) {
        // Eight tags over four sets: every way of a set is contended, so
        // LRU victims and dirty writebacks occur constantly. The sets span
        // the index range and the tags reach bit 40, so a wrong set mask or
        // tag shift shows. Every access takes a fresh LRU tick, so ties
        // never reach the victim choice; the model keeps the first minimum
        // regardless.
        const TAGS: [u64; 8] = [0, 1, 2, 3, 1 << 17, (1 << 17) + 1, 1 << 40, (1 << 40) + 3];
        for config in geometries() {
            let sets = config.sets() as usize;
            let spread = [0, 1, sets / 2 + 1, sets - 1];
            let mut cache = Cache::new(config);
            let mut model = ModelCache::new(config);
            for &(code, tag, set, offset) in &ops {
                let addr = model.line_addr(spread[set as usize], TAGS[tag as usize]) + offset;
                if code == 0 {
                    cache.flush();
                    model.flush();
                    prop_assert!(!cache.probe(addr));
                    continue;
                }
                let is_write = code >= 6;
                let want = model.access(addr, is_write);
                prop_assert_eq!(cache.access(addr, is_write), want.hit, "{:?} {:#x}", config, addr);
                prop_assert_eq!(cache.stats(), model.stats);
                if let Some(gone) = want.evicted {
                    prop_assert!(!cache.probe(gone), "{:?}: {:#x} should be the victim", config, gone);
                }
                for resident in model.residents(addr) {
                    prop_assert!(cache.probe(resident), "{:?}: {:#x} evicted early", config, resident);
                }
            }
        }
    }

    #[test]
    fn lsq_matches_a_linear_model(
        ops in proptest::collection::vec((0u8..10, 0usize..64, 0u64..16), 1..200),
    ) {
        let mut lsq = LoadStoreQueue::new(8);
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut next_sequence = 0;
        let mut forwards = 0;
        for &(code, nth, word) in &ops {
            match lsq_op(code, nth, word) {
                LsqOp::Allocate(kind) => match lsq.allocate(kind) {
                    Some(id) => {
                        prop_assert!(model.len() < 8);
                        prop_assert_eq!(id.sequence(), next_sequence);
                        next_sequence += 1;
                        model.push(ModelEntry { id, kind, addr: None, issued: false });
                    }
                    None => prop_assert_eq!(model.len(), 8),
                },
                LsqOp::SetAddress { nth, word } if !model.is_empty() => {
                    let i = nth % model.len();
                    lsq.set_address(model[i].id, word * 8);
                    model[i].addr = Some(word * 8);
                }
                LsqOp::Issue { nth } if !model.is_empty() => {
                    let i = nth % model.len();
                    let status = model_load_status(&model, i);
                    let ready = matches!(
                        status,
                        LoadStatus::ReadyFromCache | LoadStatus::ReadyForwarded { .. }
                    );
                    if model[i].kind == MemAccessKind::Load && ready {
                        let forwarded = matches!(status, LoadStatus::ReadyForwarded { .. });
                        lsq.mark_issued(model[i].id, forwarded);
                        model[i].issued = true;
                        forwards += u64::from(forwarded);
                    }
                }
                LsqOp::Release if !model.is_empty() => {
                    lsq.release_oldest(model.remove(0).id);
                }
                _ => {}
            }
            prop_assert_eq!(lsq.len(), model.len());
            prop_assert_eq!(lsq.forwards(), forwards);
            for (i, entry) in model.iter().enumerate() {
                if entry.kind == MemAccessKind::Load {
                    prop_assert_eq!(lsq.load_status(entry.id), model_load_status(&model, i));
                }
                if let Some(addr) = entry.addr {
                    prop_assert_eq!(lsq.address_of(entry.id), addr);
                }
            }
        }
    }
}
