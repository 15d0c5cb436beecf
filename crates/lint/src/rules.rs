//! The rule set: D4 (snapshot coverage), D6 (no float accumulation in
//! stats structs) and the item-model rules D8–D11 (snapshot field
//! coverage, RefCell borrow discipline, the env-var registry, stale
//! pragmas). The crate docs say where the missing ids are enforced.
//!
//! Each rule documents *why* it exists in its `explain` text (shown by
//! `semloc-lint --explain <rule>`): the project's correctness story rests
//! on bit-identical determinism (golden stat digests, the spec-vs-core
//! differential oracle, checkpoint/restore fidelity), and these rules make
//! the assumptions behind that story statically checkable.
//!
//! D4, D6 and D8–D10 consume the item model ([`crate::model`]) built once
//! per file by [`analyze`]. D11 lives in the suppression pass itself
//! (`crate::lint`), because a pragma's staleness is only known after
//! every other rule has run.

use crate::lexer::{Tok, Token};
use crate::model::{self, FileModel};
use crate::{FileKind, Finding, LexData, Severity, SourceFile};

/// Crates holding simulation state: iteration order, panics and hidden
/// state in these crates can silently break golden digests.
pub const SIM_CRATES: &[&str] = &["core", "mem", "cpu", "bandit", "baselines", "spec", "trace"];

/// Crates sharing `Rc<RefCell<…>>` state (the shared-L2 handle), where
/// rule D9 polices guard lifetimes.
pub const REFCELL_CRATES: &[&str] = &["mem", "harness"];

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable rule id, used in findings, pragmas and JSON output.
    pub id: &'static str,
    /// Short alias accepted in pragmas (`d4`, `d6`, `d8`..`d11`).
    pub alias: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    pub explain: &'static str,
}

/// The rule catalog.
pub const RULES: [RuleInfo; 6] = [
    RuleInfo {
        id: "snapshot-coverage",
        alias: "d4",
        severity: Severity::Deny,
        summary: "every run-state struct must be checkpoint-covered and manifested",
        explain: "\
Checkpoint/restore (PR 4) only stays exact if *every* struct holding
mutable run state participates in snapshotting. The source of truth is
crates/lint/snapshot_manifest.txt: each entry names a sim-crate struct
and its coverage mechanism ('snapshot' for `impl Snapshot for X`,
'state' for a `fn save_state` override inside an `impl ... for X`
block). The rule fails when (a) a manifest entry has no matching
coverage in its crate, (b) a covered struct is missing from the
manifest, or (c) — heuristic, warn-level — a non-test struct embeds a
manifested state type in its fields without being covered itself, which
is how new state silently escapes checkpointing. Fix (c) by
implementing Snapshot and adding the struct to the manifest, or pragma
the declaration if the field is genuinely derived/transient state:
  // semloc-lint: allow(snapshot-coverage): <why this is not run state>",
    },
    RuleInfo {
        id: "no-float-in-stats-accumulation",
        alias: "d6",
        severity: Severity::Deny,
        summary: "no f32/f64 `+=` folds on stats-struct fields",
        explain: "\
Floating-point addition is not associative, so a float accumulator's
value depends on fold order — and the harness folds statistics in
several orders that must all agree bit-for-bit: per-instruction
streaming, per-block batched stepping (block-local fold + one merge),
shard-pool parallel cells, and checkpoint/restore replays. An f32/f64
`+=` on a stats field silently ties the golden digest to whichever
order ran. Stats structs (any sim-crate struct named *Stats) must
accumulate in integers (counts, cycle sums, fixed-point) and derive
rates as f64 *methods* at read time — IPC, MPKI and hit-rate getters
are fine; accumulating them is not. The check infers field types from
the struct declarations (light inference: direct f32/f64 fields) and
flags every `.field +=` fold on such a field. A field that provably
never reaches a digest or report may be kept with a pragma:
  // semloc-lint: allow(no-float-in-stats-accumulation): <why order never leaks>",
    },
    RuleInfo {
        id: "snapshot-field-coverage",
        alias: "d8",
        severity: Severity::Deny,
        summary: "every field of a manifested Snapshot struct must appear in save AND restore",
        explain: "\
Rule D4 proves a state struct *has* a Snapshot impl; it says nothing
about whether the impl is *complete*. The failure mode D8 closes: a new
field is added to a manifested struct, `save`/`restore` are not updated,
the struct still round-trips without error — and every SIMC / MCCK
frame silently resumes with the new field reset to its
constructed value, diverging from an uninterrupted run. The rule walks
the item model: for every snapshot-mechanism manifest entry whose
declaration is a named-field struct, each field identifier must be
referenced somewhere in BOTH the `save` body and the `restore` body of
the matching `impl Snapshot` (helper delegation like
`self.table.save_into(w)` counts — the field name appears). Fields that
are genuinely construction-time configuration or derived/rebuildable
state carry a per-field pragma on the declaration line (or the line
above):
  // semloc-lint: allow(snapshot-field-coverage): <why this field is not run state>
Enum and tuple-struct snapshot targets are out of scope (no named
fields). The meta-test suite seeds a mutation — deleting one field
reference from a real save body — and asserts the lint catches it, so
the rule itself cannot silently rot.",
    },
    RuleInfo {
        id: "refcell-borrow-discipline",
        alias: "d9",
        severity: Severity::Deny,
        summary: "no RefCell borrow guard held across a self/shared-handle call",
        explain: "\
The multi-core mode shares one L2 between cores through
`Rc<RefCell<SharedL2>>` (crates/mem shared_l2.rs, crates/harness mc.rs).
RefCell defers borrow checking to runtime: a `borrow_mut()` guard that
is still alive when control re-enters the same cell — via a method on
`self` that also borrows, or via a second `.borrow()` on any handle —
panics at runtime, and only on the schedule that actually hits the
re-entrant path (exactly the kind of latent bug an interference search
surfaces in production, not in CI). In the RefCell-sharing crates (mem,
harness), rule D9 flags a borrow guard *bound to a local*
(`let g = h.borrow_mut();`) when, before the guard's enclosing block
ends (or an explicit `drop(g)`), the function makes a direct method call
on `self` or takes another `.borrow()`/`.borrow_mut()`. The sanctioned
patterns are temporaries (`h.borrow_mut().step(…)` — the guard dies at
the statement's end) and tight scopes (`{ let g = h.borrow_mut(); … }`
closed before the next call). A guard that provably cannot re-enter may
be kept with a pragma:
  // semloc-lint: allow(refcell-borrow-discipline): <why no call in scope can re-borrow>",
    },
    RuleInfo {
        id: "env-var-registry",
        alias: "d10",
        severity: Severity::Deny,
        summary:
            "every SEMLOC_* env read must be registered and documented; every registry entry live",
        explain: "\
Pythia's lesson (PAPERS.md, arXiv 2109.12021) is that configurability
explodes silently: every knob multiplies the state that must stay
consistent across checkpoint, replay, and CI. This workspace's knobs
are SEMLOC_* environment variables, and D10 keeps them from escaping
the documentation the way unregistered state once escaped
checkpointing. Three checks, cross-referenced like D4's manifest: (a)
every `SEMLOC_*` read site in non-test code — any call whose first
argument is a `\"SEMLOC_…\"` literal, e.g. `std::env::var`,
`std::env::var_os`, or a local helper — must name a variable listed in
crates/lint/env_registry.txt; (b) the same variable must be documented
in README.md; (c) every registry entry must have at least one live read
site — a deleted knob must leave the registry, or the registry rots
into fiction. Register a new variable by adding
  SEMLOC_MY_KNOB  <one-line description>
to the registry and documenting it in the README. `set_var`/`remove_var`
sites are writes, not reads, and do not count.",
    },
    RuleInfo {
        id: "stale-pragma",
        alias: "d11",
        severity: Severity::Deny,
        summary: "an allow(...) pragma that suppresses zero findings is itself a finding",
        explain: "\
Every `// semloc-lint: allow(<rule>): <why>` pragma is a standing claim
that a specific violation exists at that line and is justified. When the
code under a pragma is refactored until the violation disappears, the
pragma keeps making its claim — and readers (and future lint-rule
authors) keep believing the site is dangerous. Worse, a stale pragma is
a loaded gun: new code drifting onto that line inherits a suppression it
never argued for. D11 closes the loop: after all other rules run, any
pragma rule-entry that suppressed zero findings is itself a deny-level
finding — delete the pragma (or the dead rule name inside it). A pragma
naming an unknown rule is flagged the same way. This is what keeps the
justified-pragma count in BENCH_lint.json an honest audit trail rather
than a high-water mark. In the rare case a pragma must outlive its
finding (e.g. a cfg-gated violation the scan cannot see), suppress the
staleness finding itself, explicitly:
  // semloc-lint: allow(stale-pragma): <why the suppressed site is cfg-invisible>
(`allow(all)` never satisfies D11 — staleness must be acknowledged by
name.)",
    },
];

/// Look up a rule by id or alias.
pub fn rule(id_or_alias: &str) -> Option<&'static RuleInfo> {
    RULES
        .iter()
        .find(|r| r.id == id_or_alias || r.alias == id_or_alias)
}

fn is_sim_crate(file: &SourceFile) -> bool {
    file.crate_dir
        .as_deref()
        .is_some_and(|c| SIM_CRATES.contains(&c))
}

// ---------------------------------------------------------------------------
// The analysis context: lexed tokens + item model per file
// ---------------------------------------------------------------------------

/// One file with its lexed view and item model — the input to every
/// cross-file rule.
pub struct FileCtx<'a> {
    pub file: &'a SourceFile,
    pub lex: &'a LexData,
    pub model: FileModel,
}

/// Build the item model for every file. Rules D4, D6, D8, D9 and D10 all
/// share the result; the model is built exactly once per file.
pub fn analyze<'a>(pairs: &[(&'a SourceFile, &'a LexData)]) -> Vec<FileCtx<'a>> {
    pairs
        .iter()
        .map(|(file, lex)| FileCtx {
            file,
            lex,
            model: model::build(lex),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// D4: snapshot coverage
// ---------------------------------------------------------------------------

/// Coverage mechanism named in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// `impl Snapshot for X` (crates/trace/src/snap.rs trait).
    Snapshot,
    /// `fn save_state` override inside an `impl ... for X` block
    /// (the `Prefetcher` trait's state hooks).
    State,
}

impl Mechanism {
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Snapshot => "snapshot",
            Mechanism::State => "state",
        }
    }
}

/// One `crate/Struct mechanism` line of the manifest.
#[derive(Debug, Clone)]
pub struct ManifestEntry {
    pub crate_dir: String,
    pub name: String,
    pub mechanism: Mechanism,
    pub line: u32,
}

/// Parse `snapshot_manifest.txt`. Malformed lines become findings.
pub fn parse_manifest(text: &str, path: &str) -> (Vec<ManifestEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx as u32 + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut parts = l.split_whitespace();
        let target = parts.next().unwrap_or("");
        let mech = parts.next().unwrap_or("");
        let mechanism = match mech {
            "snapshot" => Some(Mechanism::Snapshot),
            "state" => Some(Mechanism::State),
            _ => None,
        };
        match (target.split_once('/'), mechanism) {
            (Some((c, n)), Some(m)) if !c.is_empty() && !n.is_empty() => {
                entries.push(ManifestEntry {
                    crate_dir: c.to_string(),
                    name: n.to_string(),
                    mechanism: m,
                    line,
                });
            }
            _ => findings.push(Finding {
                rule: "snapshot-coverage",
                severity: Severity::Deny,
                file: path.to_string(),
                line,
                col: 1,
                message: format!(
                    "malformed manifest line `{l}`: expected `crate/Struct snapshot|state`"
                ),
            }),
        }
    }
    (entries, findings)
}

/// A type covered by one of the two mechanisms.
#[derive(Debug)]
struct Coverage {
    crate_dir: String,
    name: String,
    mechanism: Mechanism,
    file: String,
    line: u32,
    col: u32,
}

/// Whether a file contributes sim-state declarations (D4/D6/D8 scope).
fn is_sim_lib(ctx: &FileCtx<'_>) -> bool {
    is_sim_crate(ctx.file) && ctx.file.kind == FileKind::LibSrc
}

/// Coverage sites across all sim-crate library files, from the item
/// model: `impl Snapshot for X` is the snapshot mechanism; a trait impl
/// carrying a `fn save_state` override is the state mechanism. Inherent
/// impls never count (matching the launch rule's semantics).
fn collect_coverage(ctxs: &[FileCtx<'_>]) -> Vec<Coverage> {
    let mut covered = Vec::new();
    for ctx in ctxs {
        if !is_sim_lib(ctx) {
            continue;
        }
        let crate_dir = ctx.file.crate_dir.clone().unwrap_or_default();
        for imp in &ctx.model.impls {
            if imp.in_test {
                continue;
            }
            let mechanism = if imp.trait_name.as_deref() == Some("Snapshot") {
                Some(Mechanism::Snapshot)
            } else if imp.trait_name.is_some() && imp.fns.iter().any(|f| f.name == "save_state") {
                Some(Mechanism::State)
            } else {
                None
            };
            if let Some(mechanism) = mechanism {
                covered.push(Coverage {
                    crate_dir: crate_dir.clone(),
                    name: imp.target.clone(),
                    mechanism,
                    file: ctx.file.rel_path.clone(),
                    line: imp.line,
                    col: imp.col,
                });
            }
        }
    }
    covered
}

/// D4: cross-file snapshot-coverage check over all sim-crate library files.
pub fn check_snapshot_coverage(
    ctxs: &[FileCtx<'_>],
    manifest: &[ManifestEntry],
    manifest_path: &str,
) -> Vec<Finding> {
    let covered = collect_coverage(ctxs);
    let mut out = Vec::new();

    // (a) Every manifest entry must be covered, by the declared mechanism.
    for e in manifest {
        match covered
            .iter()
            .find(|c| c.crate_dir == e.crate_dir && c.name == e.name)
        {
            None => out.push(Finding {
                rule: "snapshot-coverage",
                severity: Severity::Deny,
                file: manifest_path.to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "manifest entry {}/{} has no `impl Snapshot`/`fn save_state` coverage in crate `{}` — \
                     state struct lost its checkpointing, or the manifest is stale",
                    e.crate_dir, e.name, e.crate_dir
                ),
            }),
            Some(c) if c.mechanism != e.mechanism => out.push(Finding {
                rule: "snapshot-coverage",
                severity: Severity::Deny,
                file: manifest_path.to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "manifest entry {}/{} declares mechanism `{}` but the code covers it via `{}` — update the manifest",
                    e.crate_dir,
                    e.name,
                    e.mechanism.label(),
                    c.mechanism.label()
                ),
            }),
            Some(_) => {}
        }
    }

    // (b) Every covered struct declared in a sim crate must be manifested.
    for c in &covered {
        let declared_here = ctxs.iter().any(|ctx| {
            is_sim_lib(ctx)
                && ctx.file.crate_dir.as_deref() == Some(c.crate_dir.as_str())
                && ctx
                    .model
                    .structs
                    .iter()
                    .any(|s| !s.in_test && s.name == c.name)
        });
        let manifested = manifest
            .iter()
            .any(|e| e.crate_dir == c.crate_dir && e.name == c.name);
        if declared_here && !manifested {
            out.push(Finding {
                rule: "snapshot-coverage",
                severity: Severity::Deny,
                file: c.file.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "{}/{} implements {} coverage but is missing from {} — add `{}/{} {}` so coverage is tracked",
                    c.crate_dir,
                    c.name,
                    c.mechanism.label(),
                    manifest_path,
                    c.crate_dir,
                    c.name,
                    c.mechanism.label()
                ),
            });
        }
    }

    // (c) Heuristic: a struct embedding a manifested state type must itself
    // be covered (new state must not escape checkpointing by composition).
    let manifest_names: Vec<&str> = manifest.iter().map(|e| e.name.as_str()).collect();
    for ctx in ctxs {
        if !is_sim_lib(ctx) {
            continue;
        }
        let crate_dir = ctx.file.crate_dir.as_deref().unwrap_or_default();
        let aliases = use_aliases(ctx.lex);
        for s in &ctx.model.structs {
            if s.in_test {
                continue;
            }
            // Field types as written plus alias-resolved, so a
            // `use cst::Table as Tbl` rename cannot hide an embedding.
            let mut embeds: Vec<&str> = Vec::new();
            for t in &s.field_type_idents {
                if manifest_names.contains(&t.as_str()) {
                    embeds.push(t);
                } else if let Some((_, orig)) = aliases.iter().find(|(alias, _)| alias == t) {
                    if manifest_names.contains(&orig.as_str()) {
                        embeds.push(orig);
                    }
                }
            }
            if embeds.is_empty() {
                continue;
            }
            let is_covered = covered
                .iter()
                .any(|c| c.crate_dir == crate_dir && c.name == s.name);
            let manifested = manifest
                .iter()
                .any(|e| e.crate_dir == crate_dir && e.name == s.name);
            if !is_covered && !manifested {
                out.push(Finding {
                    rule: "snapshot-coverage",
                    severity: Severity::Warn,
                    file: ctx.file.rel_path.clone(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "struct {}/{} embeds checkpointed state ({}) but is not snapshot-covered — \
                         implement Snapshot (or a save_state override) and add it to the manifest, \
                         or pragma the declaration if the field is derived/transient",
                        crate_dir,
                        s.name,
                        embeds.join(", ")
                    ),
                });
            }
        }
    }

    out
}

/// `use path::X as Y;` renames in a file: `(alias, original)` pairs.
/// Grouped imports (`use m::{A as B, C as D}`) yield one pair per rename.
/// The composition heuristic resolves embedded field types through these
/// so a rename cannot hide a manifested state type.
fn use_aliases(lexed: &LexData) -> Vec<(String, String)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if lexed.test_mask[i] || toks[i].kind != Tok::Ident("use".into()) {
            i += 1;
            continue;
        }
        // Scan the statement up to its `;`, picking up `X as Y` pairs.
        // `as` only appears in use statements as a rename, so the idents
        // on either side are exactly (original, alias).
        let mut j = i + 1;
        while j < toks.len() && toks[j].kind != Tok::Punct(';') {
            if toks[j].kind == Tok::Ident("as".into()) {
                if let (
                    Some(Token {
                        kind: Tok::Ident(orig),
                        ..
                    }),
                    Some(Token {
                        kind: Tok::Ident(alias),
                        ..
                    }),
                ) = (toks.get(j - 1), toks.get(j + 1))
                {
                    out.push((alias.clone(), orig.clone()));
                }
            }
            j += 1;
        }
        i = j;
    }
    out
}

// ---------------------------------------------------------------------------
// D8: snapshot field coverage
// ---------------------------------------------------------------------------

/// D8: every named field of a snapshot-mechanism manifest entry must be
/// referenced in both the `save` and `restore` bodies of its `impl
/// Snapshot`. Findings land on the field declaration, so a per-field
/// pragma there suppresses them.
pub fn check_snapshot_field_coverage(
    ctxs: &[FileCtx<'_>],
    manifest: &[ManifestEntry],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for e in manifest {
        if e.mechanism != Mechanism::Snapshot {
            continue;
        }
        // The struct declaration (named fields only — enums and tuple
        // structs have no field identifiers to track).
        let decl = ctxs.iter().find_map(|ctx| {
            if !is_sim_lib(ctx) || ctx.file.crate_dir.as_deref() != Some(e.crate_dir.as_str()) {
                return None;
            }
            ctx.model
                .structs
                .iter()
                .find(|s| !s.in_test && s.named && s.name == e.name)
                .map(|s| (ctx, s))
        });
        let Some((decl_ctx, s)) = decl else {
            continue;
        };
        // The Snapshot impl and its save/restore bodies.
        let cov = ctxs.iter().find_map(|ctx| {
            if !is_sim_lib(ctx) || ctx.file.crate_dir.as_deref() != Some(e.crate_dir.as_str()) {
                return None;
            }
            ctx.model
                .impls
                .iter()
                .find(|imp| {
                    !imp.in_test
                        && imp.trait_name.as_deref() == Some("Snapshot")
                        && imp.target == e.name
                })
                .map(|imp| (ctx, imp))
        });
        let Some((impl_ctx, imp)) = cov else {
            continue; // D4 reports the missing impl
        };
        let body_of = |name: &str| imp.fns.iter().find(|f| f.name == name).and_then(|f| f.body);
        let (Some(save), Some(restore)) = (body_of("save"), body_of("restore")) else {
            continue; // would not compile as a Snapshot impl
        };
        let referenced = |range: (usize, usize), field: &str| {
            impl_ctx.lex.tokens[range.0..range.1]
                .iter()
                .any(|t| matches!(&t.kind, Tok::Ident(n) if n == field))
        };
        for field in &s.fields {
            let in_save = referenced(save, &field.name);
            let in_restore = referenced(restore, &field.name);
            if in_save && in_restore {
                continue;
            }
            let missing = match (in_save, in_restore) {
                (false, false) => "save or restore body",
                (false, true) => "save body",
                (true, false) => "restore body",
                (true, true) => unreachable!(),
            };
            out.push(Finding {
                rule: "snapshot-field-coverage",
                severity: Severity::Deny,
                file: decl_ctx.file.rel_path.clone(),
                line: field.line,
                col: field.col,
                message: format!(
                    "field `{}` of manifested struct {}/{} is never referenced in the {} of its \
                     Snapshot impl ({}:{}) — an unserialized field silently corrupts \
                     SIMC / MCCK frames; wire it into save+restore, or pragma this \
                     declaration if it is construction-time config or derived state",
                    field.name, e.crate_dir, e.name, missing, impl_ctx.file.rel_path, imp.line
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D9: RefCell borrow discipline
// ---------------------------------------------------------------------------

/// D9: in the RefCell-sharing crates, flag a borrow guard bound to a
/// local that is still alive (same block, no `drop(guard)`) when the
/// function calls a method on `self` or takes another borrow.
pub fn check_refcell_borrow_discipline(ctxs: &[FileCtx<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for ctx in ctxs {
        let in_scope = ctx
            .file
            .crate_dir
            .as_deref()
            .is_some_and(|c| REFCELL_CRATES.contains(&c))
            && matches!(ctx.file.kind, FileKind::LibSrc | FileKind::Bin);
        if !in_scope {
            continue;
        }
        let bodies = ctx
            .model
            .fns
            .iter()
            .chain(ctx.model.impls.iter().flat_map(|i| i.fns.iter()))
            .filter(|f| !f.in_test)
            .filter_map(|f| f.body);
        for (start, end) in bodies {
            scan_guard_liveness(ctx, start, end, &mut out);
        }
    }
    out
}

/// Walk one function body looking for `let g = ….borrow[_mut]();`
/// bindings, then for a re-entrancy hazard while `g` is in scope.
fn scan_guard_liveness(ctx: &FileCtx<'_>, start: usize, end: usize, out: &mut Vec<Finding>) {
    let toks = &ctx.lex.tokens;
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match &toks[i].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth -= 1,
            Tok::Ident(k) if k == "let" => {
                // `let [mut] name = … .borrow[_mut]() ;`
                let mut j = i + 1;
                if matches!(toks.get(j).map(|t| &t.kind), Some(Tok::Ident(m)) if m == "mut") {
                    j += 1;
                }
                let Some(Token {
                    kind: Tok::Ident(name),
                    ..
                }) = toks.get(j)
                else {
                    i += 1;
                    continue;
                };
                if toks.get(j + 1).map(|t| &t.kind) != Some(&Tok::Punct('=')) {
                    i += 1;
                    continue;
                }
                // Find the statement-ending `;` at nesting depth 0.
                let mut k = j + 2;
                let mut nest = 0i32;
                while k < end {
                    match &toks[k].kind {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => nest += 1,
                        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => nest -= 1,
                        Tok::Punct(';') if nest == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                // A guard binding ends in `.borrow()` / `.borrow_mut()`
                // immediately before the `;` — a trailing method chain
                // (`.borrow().stats()`) means the guard is a temporary.
                let tail_is_borrow = k >= 4
                    && toks[k - 1].kind == Tok::Punct(')')
                    && toks[k - 2].kind == Tok::Punct('(')
                    && matches!(&toks[k - 3].kind,
                        Tok::Ident(m) if m == "borrow" || m == "borrow_mut")
                    && toks[k - 4].kind == Tok::Punct('.');
                if !tail_is_borrow {
                    i = k;
                    continue;
                }
                if let Some(hazard) = guard_hazard(toks, k + 1, end, depth, name) {
                    out.push(Finding {
                        rule: "refcell-borrow-discipline",
                        severity: Severity::Deny,
                        file: ctx.file.rel_path.clone(),
                        line: toks[i].line,
                        col: toks[i].col,
                        message: format!(
                            "borrow guard `{name}` is still alive at line {hazard} where the \
                             function {} — a re-entrant borrow of the shared cell panics at \
                             runtime; scope the guard in its own block, use a temporary, or \
                             `drop({name})` first",
                            hazard_kind(toks, end, hazard)
                        ),
                    });
                }
                i = k;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Scan from `from` while the guard's enclosing block (at `let_depth`) is
/// open and the guard is not dropped; return the line of the first
/// hazard: a direct `self.method(…)` call or another `.borrow[_mut](`.
fn guard_hazard(
    toks: &[Token],
    from: usize,
    end: usize,
    let_depth: i32,
    guard: &str,
) -> Option<u32> {
    let mut depth = let_depth;
    let mut i = from;
    while i < end {
        match &toks[i].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth < let_depth {
                    return None; // guard's block closed
                }
            }
            // `drop(guard)` ends the guard's liveness.
            Tok::Ident(k)
                if k == "drop"
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('('))
                    && matches!(toks.get(i + 2).map(|t| &t.kind),
                        Some(Tok::Ident(g)) if g == guard)
                    && toks.get(i + 3).map(|t| &t.kind) == Some(&Tok::Punct(')')) =>
            {
                return None;
            }
            // Direct method call on self: `self . ident (`.
            Tok::Ident(k)
                if k == "self"
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('.'))
                    && matches!(toks.get(i + 2).map(|t| &t.kind), Some(Tok::Ident(_)))
                    && toks.get(i + 3).map(|t| &t.kind) == Some(&Tok::Punct('(')) =>
            {
                return Some(toks[i].line);
            }
            Tok::Ident(k)
                if (k == "borrow" || k == "borrow_mut")
                    && i > 0
                    && toks[i - 1].kind == Tok::Punct('.')
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('(')) =>
            {
                return Some(toks[i].line);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Human label for the hazard at `line` (used in the D9 message).
fn hazard_kind(toks: &[Token], end: usize, line: u32) -> String {
    let reborrow = toks.iter().take(end).any(|t| {
        t.line == line && matches!(&t.kind, Tok::Ident(k) if k == "borrow" || k == "borrow_mut")
    });
    if reborrow {
        format!("takes another borrow (line {line})")
    } else {
        format!("calls a method on `self` (line {line})")
    }
}

// ---------------------------------------------------------------------------
// D10: env-var registry
// ---------------------------------------------------------------------------

/// One `SEMLOC_NAME <description>` line of the env-var registry.
#[derive(Debug, Clone)]
pub struct EnvRegistryEntry {
    pub name: String,
    pub line: u32,
}

/// Parse `env_registry.txt`. Malformed lines become findings.
pub fn parse_env_registry(text: &str, path: &str) -> (Vec<EnvRegistryEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx as u32 + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut parts = l.split_whitespace();
        let name = parts.next().unwrap_or("");
        let has_desc = parts.next().is_some();
        if name.starts_with("SEMLOC_") && name.len() > "SEMLOC_".len() && has_desc {
            entries.push(EnvRegistryEntry {
                name: name.to_string(),
                line,
            });
        } else {
            findings.push(Finding {
                rule: "env-var-registry",
                severity: Severity::Deny,
                file: path.to_string(),
                line,
                col: 1,
                message: format!(
                    "malformed registry line `{l}`: expected `SEMLOC_NAME <one-line description>`"
                ),
            });
        }
    }
    (entries, findings)
}

/// D10: cross-check `SEMLOC_*` read sites against the registry and the
/// README, both directions.
pub fn check_env_registry(
    ctxs: &[FileCtx<'_>],
    registry: &[EnvRegistryEntry],
    registry_path: &str,
    readme: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    // First read site per variable, in scan order (files are sorted, so
    // this is deterministic); duplicate reads of one variable share a
    // single registration, so one finding per variable is enough.
    let mut first_read: Vec<(&str, &FileCtx<'_>, u32, u32)> = Vec::new();
    for ctx in ctxs {
        if ctx.file.kind == FileKind::TestsDir {
            continue;
        }
        for r in &ctx.model.env_reads {
            if r.in_test || r.callee == "set_var" || r.callee == "remove_var" {
                continue;
            }
            if !first_read.iter().any(|(v, ..)| *v == r.var) {
                first_read.push((&r.var, ctx, r.line, r.col));
            }
        }
    }

    for (var, ctx, line, col) in &first_read {
        if !registry.iter().any(|e| e.name == *var) {
            out.push(Finding {
                rule: "env-var-registry",
                severity: Severity::Deny,
                file: ctx.file.rel_path.clone(),
                line: *line,
                col: *col,
                message: format!(
                    "env var `{var}` is read here but not registered in {registry_path} — \
                     every SEMLOC_* knob must be listed (name + one-line description) so \
                     configuration state stays auditable"
                ),
            });
        }
        if !readme.contains(var as &str) {
            out.push(Finding {
                rule: "env-var-registry",
                severity: Severity::Deny,
                file: ctx.file.rel_path.clone(),
                line: *line,
                col: *col,
                message: format!(
                    "env var `{var}` is read here but never mentioned in README.md — \
                     document the knob where users will actually find it"
                ),
            });
        }
    }

    for e in registry {
        if !first_read.iter().any(|(v, ..)| *v == e.name) {
            out.push(Finding {
                rule: "env-var-registry",
                severity: Severity::Deny,
                file: registry_path.to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "registry entry `{}` has no live read site in non-test code — the knob \
                     was removed or renamed; delete the entry (and its README section) or \
                     restore the read",
                    e.name
                ),
            });
        }
    }

    out
}

// ---------------------------------------------------------------------------
// D6: no float accumulation in stats structs
// ---------------------------------------------------------------------------

/// A float-typed field declared in a sim-crate `*Stats` struct.
#[derive(Debug)]
struct FloatStatsField {
    /// Owning struct, for the finding message.
    owner: String,
    field: String,
}

/// D6: flag `.field +=` folds on float-typed `*Stats` fields across all
/// sim-crate non-test code.
pub fn check_float_stats(ctxs: &[FileCtx<'_>]) -> Vec<Finding> {
    // Phase A: field-type inference over every sim-crate declaration,
    // straight off the item model: a direct `f32`/`f64` field is a type
    // span of exactly one token.
    let mut float_fields: Vec<FloatStatsField> = Vec::new();
    for ctx in ctxs {
        if !is_sim_lib(ctx) {
            continue;
        }
        for s in &ctx.model.structs {
            if s.in_test || !s.name.ends_with("Stats") {
                continue;
            }
            for f in &s.fields {
                let (a, b) = f.ty;
                if b == a + 1
                    && matches!(&ctx.lex.tokens[a].kind,
                        Tok::Ident(ty) if ty == "f32" || ty == "f64")
                {
                    float_fields.push(FloatStatsField {
                        owner: s.name.clone(),
                        field: f.name.clone(),
                    });
                }
            }
        }
    }
    if float_fields.is_empty() {
        return Vec::new();
    }

    // Phase B: find `.field +=` accumulation sites on those fields.
    let mut out = Vec::new();
    for ctx in ctxs {
        if !is_sim_crate(ctx.file) || ctx.file.kind == FileKind::TestsDir {
            continue;
        }
        let (file, lexed) = (ctx.file, ctx.lex);
        let toks = &lexed.tokens;
        for i in 0..toks.len().saturating_sub(3) {
            if lexed.test_mask[i] {
                continue;
            }
            let (Tok::Punct('.'), Tok::Ident(field), Tok::Punct('+'), Tok::Punct('=')) = (
                &toks[i].kind,
                &toks[i + 1].kind,
                &toks[i + 2].kind,
                &toks[i + 3].kind,
            ) else {
                continue;
            };
            let Some(ff) = float_fields.iter().find(|f| &f.field == field) else {
                continue;
            };
            out.push(Finding::new(
                "no-float-in-stats-accumulation",
                Severity::Deny,
                file,
                &toks[i + 1],
                format!(
                    "float `+=` fold on stats field `{}` (declared f32/f64 in `{}`): \
                     accumulation order would leak into the golden digest; accumulate \
                     in integers and derive the rate in a getter instead",
                    ff.field, ff.owner
                ),
            ));
        }
    }
    out
}
