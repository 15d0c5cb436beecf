//! In-crate lockstep checks: drive `ContextPrefetcher` (optimized) and
//! `SpecPrefetcher` (naive reference) side by side over synthetic access
//! streams and require every observable to match on every access. The
//! harness-level `DiffRunner` does the same over full replayed workloads;
//! these tests are the fast, self-contained version.

use semloc_context::{ContextConfig, ContextPrefetcher, ContextStats};
use semloc_mem::{MemPressure, PrefetchReq, Prefetcher};
use semloc_spec::SpecPrefetcher;
use semloc_trace::{AccessContext, RefForm, SemanticHints, RECENT_ADDRS};

/// SplitMix64 — deterministic stream entropy without depending on the
/// prefetchers' own RNG.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flatten `ContextStats` to labelled counters so mismatches name the
/// field.
fn stats_fields(s: &ContextStats) -> Vec<(&'static str, u64)> {
    vec![
        ("real_issued", s.real_issued),
        ("shadow_issued", s.shadow_issued),
        ("demoted", s.demoted),
        ("hits", s.hits),
        ("expired", s.expired),
        ("timely_hits", s.timely_hits),
        ("late_hits", s.late_hits),
        ("early_hits", s.early_hits),
        ("collected", s.collected),
        ("delta_overflow", s.delta_overflow),
    ]
}

struct StreamState {
    entropy: u64,
    recent: [u64; RECENT_ADDRS],
    branch_history: u16,
    last_loaded: u64,
}

impl StreamState {
    fn new(seed: u64) -> Self {
        StreamState {
            entropy: seed,
            recent: [0; RECENT_ADDRS],
            branch_history: 0,
            last_loaded: 0,
        }
    }

    /// Wrap a raw address into a full context, maintaining the rolling
    /// machine state (recent blocks, branch history, last loaded value).
    fn ctx(&mut self, seq: u64, pc: u64, addr: u64) -> AccessContext {
        let e = mix(&mut self.entropy);
        let ctx = AccessContext {
            seq,
            pc,
            addr,
            is_write: e & 7 == 0,
            branch_history: self.branch_history,
            recent_addrs: self.recent,
            reg1: addr ^ (e >> 8),
            reg2: e >> 24,
            last_loaded: self.last_loaded,
            hints: if e & 15 == 3 {
                Some(SemanticHints {
                    type_id: (e >> 32) as u16 & 0x3f,
                    link_offset: (e >> 40) as u16 & 0xff,
                    ref_form: match (e >> 48) & 3 {
                        0 => RefForm::Dot,
                        1 => RefForm::Arrow,
                        2 => RefForm::Deref,
                        _ => RefForm::Index,
                    },
                })
            } else {
                None
            },
        };
        self.recent.rotate_right(1);
        self.recent[0] = addr >> 5;
        self.branch_history = (self.branch_history << 1) | (e >> 16 & 1) as u16;
        self.last_loaded = e;
        ctx
    }
}

/// Drive both prefetchers over `accesses` and assert lockstep equality of
/// every per-access and end-of-run observable.
fn run_lockstep(cfg: ContextConfig, label: &str, accesses: &[AccessContext]) {
    let mut core = ContextPrefetcher::new(cfg.clone());
    let mut spec = SpecPrefetcher::new(cfg);

    let mut core_out: Vec<PrefetchReq> = Vec::new();
    let mut spec_out: Vec<PrefetchReq> = Vec::new();
    let mut entropy = 0x10c5u64 ^ accesses.len() as u64;

    for (i, ctx) in accesses.iter().enumerate() {
        let e = mix(&mut entropy);
        // Vary MSHR pressure so both the real-issue and forced-shadow
        // paths are exercised.
        let pressure = MemPressure {
            l1_mshr_free: (e % 5) as u32,
            l2_mshr_free: 8,
        };

        core_out.clear();
        spec_out.clear();
        core.on_access(ctx, pressure, &mut core_out);
        spec.on_access(ctx, pressure, &mut spec_out);

        assert_eq!(
            core_out.len(),
            spec_out.len(),
            "[{label}] access {i} (seq {}): request count diverged\n core: {core_out:?}\n spec: {spec_out:?}",
            ctx.seq
        );
        for (c, s) in core_out.iter().zip(spec_out.iter()) {
            assert_eq!(
                (c.addr, c.shadow, c.tag),
                (s.addr, s.shadow, s.tag),
                "[{label}] access {i} (seq {}): request diverged\n core: {core_out:?}\n spec: {spec_out:?}",
                ctx.seq
            );
        }

        // Occasionally bounce an issued request to exercise demotion.
        if !core_out.is_empty() && e & 31 == 7 {
            let tag = core_out[0].tag;
            core.on_issue_result(tag, false);
            spec.on_issue_result(tag, false);
        }

        // Probe was_predicted on both a just-seen block and a random one.
        let probe = if e & 1 == 0 { ctx.addr } else { e };
        assert_eq!(
            core.was_predicted(probe),
            spec.was_predicted(probe),
            "[{label}] access {i}: was_predicted({probe:#x}) diverged"
        );

        assert_eq!(
            core.config().exploration.accuracy().to_bits(),
            spec.accuracy().to_bits(),
            "[{label}] access {i}: accuracy diverged (core {}, spec {})",
            core.config().exploration.accuracy(),
            spec.accuracy()
        );
    }

    core.finish();
    spec.finish();

    let cs = stats_fields(core.learn_stats());
    let ss = stats_fields(spec.learn_stats());
    assert_eq!(cs, ss, "[{label}] final learning stats diverged");
    assert_eq!(
        core.learn_stats().depth_cdf.points(),
        spec.learn_stats().depth_cdf.points(),
        "[{label}] hit-depth CDF diverged"
    );

    let cm = core.stats();
    let sm = Prefetcher::stats(&spec);
    assert_eq!(
        (cm.issued, cm.rejected, cm.shadow, cm.useful),
        (sm.issued, sm.rejected, sm.shadow, sm.useful),
        "[{label}] memory-side stats diverged"
    );

    assert_eq!(
        core.cst().occupancy(),
        spec.cst_occupancy(),
        "[{label}] CST occupancy diverged"
    );
    let core_dump: Vec<_> = core.cst().dump().collect();
    assert_eq!(
        core_dump,
        spec.cst_dump(),
        "[{label}] CST contents diverged"
    );

    assert_eq!(
        core.reducer().active_histogram(),
        spec.reducer_histogram(),
        "[{label}] reducer histogram diverged"
    );
    assert_eq!(
        (core.reducer().activations(), core.reducer().deactivations()),
        (spec.reducer_activations(), spec.reducer_deactivations()),
        "[{label}] reducer activation counters diverged"
    );
}

fn stride_stream(n: usize, seed: u64) -> Vec<AccessContext> {
    let mut st = StreamState::new(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n as u64 {
        // Three interleaved strided arrays, different PCs.
        let (pc, addr) = match i % 3 {
            0 => (0x400100, 0x10_0000 + (i / 3) * 64),
            1 => (0x400140, 0x80_0000 + (i / 3) * 192),
            _ => (0x400180, 0x20_0000 + (i / 3) * 320),
        };
        out.push(st.ctx(i, pc, addr));
    }
    out
}

fn pointer_chain_stream(n: usize, seed: u64) -> Vec<AccessContext> {
    let mut st = StreamState::new(seed);
    // A shuffled ring of "nodes": each access loads the next pointer.
    let nodes = 256u64;
    let mut next = vec![0u64; nodes as usize];
    let mut e = seed | 1;
    for (i, slot) in next.iter_mut().enumerate() {
        *slot = (i as u64 + 1 + mix(&mut e) % 7) % nodes;
    }
    let mut cur = 0u64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let addr = 0x30_0000 + cur * 96;
        let ctx = st.ctx(i, 0x4002a0, addr);
        out.push(ctx);
        cur = next[cur as usize];
    }
    out
}

fn random_stream(n: usize, seed: u64) -> Vec<AccessContext> {
    let mut st = StreamState::new(seed);
    let mut e = seed ^ 0xdead_beef;
    let mut out = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let addr = mix(&mut e) % (1 << 24);
        let pc = 0x400000 + (mix(&mut e) % 16) * 4;
        out.push(st.ctx(i, pc, addr));
    }
    out
}

/// Strided, pointer-like (with link hints) and noise accesses interleaved
/// one by one, on bare contexts whose registers and branch history carry
/// a xorshift state.
fn interleaved_stream(n: u64) -> Vec<AccessContext> {
    let mut state = 0xfeed_5eed_u64;
    (0..n)
        .map(|seq| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = match seq % 3 {
                0 => 0x10_0000 + seq * 64,
                1 => 0x80_0000 + (seq % 97) * 160,
                _ => 0x100_0000 + (state % (1 << 22)),
            };
            let mut c = AccessContext::bare(seq, 0x400 + (seq % 3) * 0x10, addr, seq % 7 == 0);
            c.reg1 = addr >> 5;
            c.branch_history = state as u16;
            c.last_loaded = state;
            if seq % 3 == 1 {
                c.hints = Some(SemanticHints::link(2, 8));
            }
            c
        })
        .collect()
}

#[test]
fn lockstep_stride_default_config() {
    run_lockstep(
        ContextConfig::default(),
        "stride/default",
        &stride_stream(4000, 11),
    );
}

#[test]
fn lockstep_pointer_chain_default_config() {
    run_lockstep(
        ContextConfig::default(),
        "chain/default",
        &pointer_chain_stream(4000, 22),
    );
}

#[test]
fn lockstep_random_default_config() {
    run_lockstep(
        ContextConfig::default(),
        "random/default",
        &random_stream(3000, 33),
    );
}

#[test]
fn lockstep_interleaved_default_config() {
    run_lockstep(
        ContextConfig::default(),
        "interleaved/default",
        &interleaved_stream(20_000),
    );
}

#[test]
fn lockstep_variant_config() {
    // A deliberately different operating point: small tables, wide deltas,
    // different seed and exploration band.
    let cfg = ContextConfig {
        seed: 0xd1ff,
        cst_entries: 256,
        reducer_entries: 1024,
        initial_active: 3,
        delta_bits: 16,
        max_degree: 4,
        ..ContextConfig::default()
    };
    run_lockstep(cfg.clone(), "stride/variant", &stride_stream(3000, 44));
    run_lockstep(cfg, "chain/variant", &pointer_chain_stream(3000, 55));
}

#[test]
fn lockstep_shadow_disabled() {
    let cfg = ContextConfig {
        disable_shadow: true,
        ..ContextConfig::default()
    };
    run_lockstep(cfg, "stride/no-shadow", &stride_stream(2500, 66));
}
