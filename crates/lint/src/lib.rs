//! `semloc-lint` — workspace static analysis for the semloc simulator.
//!
//! A dependency-free (offline-safe) lint pass with its own lightweight
//! Rust lexer. It walks every workspace crate and enforces the
//! project-specific invariants the test suite *assumes* but cannot state:
//!
//! | id | alias | what it denies |
//! |----|-------|----------------|
//! | `snapshot-coverage`       | d4 | run-state structs missing from checkpointing |
//! | `no-float-in-stats-accumulation` | d6 | `f32`/`f64` `+=` folds on sim-crate stats fields |
//! | `snapshot-field-coverage` | d8 | manifested struct fields absent from save/restore bodies |
//! | `refcell-borrow-discipline` | d9 | RefCell guards held across `self`/re-borrow calls |
//! | `env-var-registry`        | d10 | unregistered/undocumented/dead `SEMLOC_*` env knobs |
//! | `stale-pragma`            | d11 | allow-pragmas that no longer suppress anything |
//!
//! The missing ids are enforced elsewhere, once each: clippy owns std hash
//! collections (D1), wall-clock reads (D2), panics in sim-crate library
//! code (D3) and undocumented `unsafe` blocks (D7); the Table 2 constants
//! (D5) are a paper-fidelity test in crates/spec.
//!
//! D4, D6 and D8–D10 consume the item model ([`model`]) — a
//! dependency-free recursive-descent pass over the lexer output that
//! recovers structs-with-fields, impl blocks, functions and `SEMLOC_*`
//! env-read call sites. D11 runs inside the suppression pass itself,
//! after every other rule.
//!
//! Suppression is per-site via `// semloc-lint: allow(<rule>): reason`
//! pragmas (same line or the line above); `--explain <rule>` prints the
//! full rationale; `--json` and `--sarif` emit machine-readable reports.
//! See DESIGN.md §12 and §17 for the rule catalog and severity model.

pub mod lexer;
pub mod model;
pub mod rules;
pub mod sarif;
pub mod scopes;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{AllowPragma, Token};
use rules::{EnvRegistryEntry, ManifestEntry, RULES};

/// Finding severity. `Warn` findings are advisory unless `--deny-all`
/// promotes them; heuristic sub-checks (D4's composition scan) use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Deny,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One lint finding at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Finding {
    pub(crate) fn new(
        rule: &'static str,
        severity: Severity,
        file: &SourceFile,
        at: &Token,
        message: String,
    ) -> Self {
        Finding {
            rule,
            severity,
            file: file.rel_path.clone(),
            line: at.line,
            col: at.col,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}({}): {}",
            self.file,
            self.line,
            self.col,
            self.severity.label(),
            self.rule,
            self.message
        )
    }
}

/// What kind of target a source file belongs to (decides rule scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` (not `src/bin/`, not `src/main.rs`).
    LibSrc,
    /// Binary code: `src/bin/*` or `src/main.rs`.
    Bin,
    /// Integration tests under `tests/`.
    TestsDir,
    /// Bench targets under `benches/`.
    Benches,
    /// Examples under `examples/`.
    Examples,
}

/// One workspace source file, loaded in memory (tests construct these
/// directly to lint fixture snippets without touching disk).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// `crates/<dir>` component, if any (`None` for the umbrella crate).
    pub crate_dir: Option<String>,
    pub kind: FileKind,
    pub content: String,
}

impl SourceFile {
    /// A fixture file for tests: crate dir + kind + source text.
    pub fn fixture(crate_dir: &str, kind: FileKind, rel_path: &str, content: &str) -> Self {
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_dir: Some(crate_dir.to_string()),
            kind,
            content: content.to_string(),
        }
    }
}

/// Lexed view of one file: tokens, test mask, pragmas.
#[derive(Debug)]
pub struct LexData {
    pub tokens: Vec<Token>,
    pub test_mask: Vec<bool>,
    pub pragmas: Vec<AllowPragma>,
}

impl LexData {
    pub fn of(content: &str) -> Self {
        let out = lexer::lex(content);
        let test_mask = scopes::test_mask(&out.tokens);
        LexData {
            tokens: out.tokens,
            test_mask,
            pragmas: out.pragmas,
        }
    }
}

/// The loaded workspace: every scanned source file plus the D4 manifest,
/// the D10 env-var registry, and the README text D10 cross-checks.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    pub manifest: Vec<ManifestEntry>,
    pub manifest_findings: Vec<Finding>,
    pub manifest_path: String,
    pub env_registry: Vec<EnvRegistryEntry>,
    pub env_registry_findings: Vec<Finding>,
    pub env_registry_path: String,
    /// README.md text, for D10's documentation cross-check.
    pub readme: String,
}

/// Path of the snapshot-coverage manifest, relative to the workspace root.
pub const MANIFEST_REL_PATH: &str = "crates/lint/snapshot_manifest.txt";

/// Path of the env-var registry, relative to the workspace root.
pub const ENV_REGISTRY_REL_PATH: &str = "crates/lint/env_registry.txt";

/// Vendored stand-ins for third-party crates: not our code, not scanned
/// (the stubs mirror external APIs rather than project conventions).
const VENDOR_STUBS: &[&str] = &["rand", "proptest"];

/// Load every scannable `.rs` file under the workspace root.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();

    // Umbrella crate: src/, tests/, examples/.
    for (dir, kind) in [
        ("src", FileKind::LibSrc),
        ("tests", FileKind::TestsDir),
        ("examples", FileKind::Examples),
    ] {
        collect_rs(&root.join(dir), root, None, kind, &mut files)?;
    }

    // Member crates.
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let p = entry?.path();
            if p.is_dir() {
                crate_dirs.push(p);
            }
        }
    }
    crate_dirs.sort();
    for cdir in crate_dirs {
        let name = cdir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if VENDOR_STUBS.contains(&name.as_str()) {
            continue;
        }
        for (dir, kind) in [
            ("src", FileKind::LibSrc),
            ("tests", FileKind::TestsDir),
            ("benches", FileKind::Benches),
        ] {
            collect_rs(&cdir.join(dir), root, Some(&name), kind, &mut files)?;
        }
    }

    let manifest_path_abs = root.join(MANIFEST_REL_PATH);
    let manifest_text = fs::read_to_string(&manifest_path_abs).unwrap_or_default();
    let (manifest, manifest_findings) = rules::parse_manifest(&manifest_text, MANIFEST_REL_PATH);

    let registry_text = fs::read_to_string(root.join(ENV_REGISTRY_REL_PATH)).unwrap_or_default();
    let (env_registry, env_registry_findings) =
        rules::parse_env_registry(&registry_text, ENV_REGISTRY_REL_PATH);
    let readme = fs::read_to_string(root.join("README.md")).unwrap_or_default();

    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        manifest,
        manifest_findings,
        manifest_path: MANIFEST_REL_PATH.to_string(),
        env_registry,
        env_registry_findings,
        env_registry_path: ENV_REGISTRY_REL_PATH.to_string(),
        readme,
    })
}

/// Recursively collect `.rs` files, sorted for deterministic output.
fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_dir: Option<&str>,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, crate_dir, kind, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel_path = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            // `src/bin/*` and `src/main.rs` are binaries, not library code.
            let kind = if kind == FileKind::LibSrc
                && (rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs"))
            {
                FileKind::Bin
            } else {
                kind
            };
            let content = fs::read_to_string(&p)?;
            out.push(SourceFile {
                rel_path,
                crate_dir: crate_dir.map(str::to_string),
                kind,
                content,
            });
        }
    }
    Ok(())
}

/// Full lint report.
#[derive(Debug)]
pub struct LintReport {
    /// Surviving findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Findings suppressed by a matching pragma.
    pub pragmas_honored: usize,
    /// Wall time of load+lint in milliseconds, measured by the CLI (the
    /// library itself never reads a clock). `None` when unset; reported in
    /// the JSON summary for BENCH_lint.json.
    pub parse_ms: Option<u64>,
}

impl LintReport {
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    pub fn warn_count(&self) -> usize {
        self.findings.len() - self.deny_count()
    }

    /// Per-rule finding counts, in rule-catalog order.
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|r| {
                (
                    r.id,
                    self.findings.iter().filter(|f| f.rule == r.id).count(),
                )
            })
            .collect()
    }
}

/// Run every rule over a loaded workspace.
pub fn lint(ws: &Workspace) -> LintReport {
    let lexed: Vec<LexData> = ws.files.iter().map(|f| LexData::of(&f.content)).collect();
    let pairs: Vec<(&SourceFile, &LexData)> = ws.files.iter().zip(lexed.iter()).collect();
    let ctxs = rules::analyze(&pairs);

    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(ws.manifest_findings.iter().cloned());
    raw.extend(ws.env_registry_findings.iter().cloned());
    raw.extend(rules::check_snapshot_coverage(
        &ctxs,
        &ws.manifest,
        &ws.manifest_path,
    ));
    raw.extend(rules::check_float_stats(&ctxs));
    raw.extend(rules::check_snapshot_field_coverage(&ctxs, &ws.manifest));
    raw.extend(rules::check_refcell_borrow_discipline(&ctxs));
    raw.extend(rules::check_env_registry(
        &ctxs,
        &ws.env_registry,
        &ws.env_registry_path,
        &ws.readme,
    ));

    // Suppression pass, tracking which pragma rule-entries earned their
    // keep — the residue drives D11 below.
    let mut used: Vec<Vec<Vec<bool>>> = pairs
        .iter()
        .map(|(_, lx)| {
            lx.pragmas
                .iter()
                .map(|p| vec![false; p.rules.len()])
                .collect()
        })
        .collect();
    let mut findings = Vec::new();
    let mut pragmas_honored = 0usize;
    for f in raw {
        let mut suppressed = false;
        if let Some(fi) = pairs.iter().position(|(file, _)| file.rel_path == f.file) {
            for (pi, p) in pairs[fi].1.pragmas.iter().enumerate() {
                if p.line != f.line && p.line + 1 != f.line {
                    continue;
                }
                for (ei, r) in p.rules.iter().enumerate() {
                    if r == "all" || rules::rule(r).is_some_and(|info| info.id == f.rule) {
                        used[fi][pi][ei] = true;
                        suppressed = true;
                    }
                }
            }
        }
        if suppressed {
            pragmas_honored += 1;
        } else {
            findings.push(f);
        }
    }

    // D11: a pragma rule-entry that suppressed zero findings is itself a
    // finding, as is one naming an unknown rule. Entries naming D11
    // itself are exempt (they suppress the findings this very pass
    // emits — flagging them would be circular).
    let mut stale: Vec<Finding> = Vec::new();
    for (fi, (file, lx)) in pairs.iter().enumerate() {
        for (pi, p) in lx.pragmas.iter().enumerate() {
            for (ei, r) in p.rules.iter().enumerate() {
                if r == "stale-pragma" || r == "d11" {
                    continue;
                }
                let message = if r != "all" && rules::rule(r).is_none() {
                    format!(
                        "pragma names unknown rule `{r}` — misspelled, or the rule was removed; \
                         fix or delete the entry"
                    )
                } else if !used[fi][pi][ei] {
                    format!(
                        "pragma entry `{r}` suppresses zero findings — the violation it \
                         justified is gone; delete the entry so the suppression cannot be \
                         inherited by future code (acknowledge with allow(stale-pragma) \
                         only if the site is scan-invisible, e.g. cfg-gated)"
                    )
                } else {
                    continue;
                };
                stale.push(Finding {
                    rule: "stale-pragma",
                    severity: Severity::Deny,
                    file: file.rel_path.clone(),
                    line: p.line,
                    col: 1,
                    message,
                });
            }
        }
    }
    // Stale-pragma findings are suppressible only by an entry naming D11
    // explicitly — `allow(all)` never satisfies D11, else any pragma
    // could launder its own staleness.
    for f in stale {
        let acknowledged = pairs
            .iter()
            .find(|(file, _)| file.rel_path == f.file)
            .map(|(_, lx)| lx.pragmas.as_slice())
            .unwrap_or(&[])
            .iter()
            .any(|p| {
                (p.line == f.line || p.line + 1 == f.line)
                    && p.rules.iter().any(|r| r == "stale-pragma" || r == "d11")
            });
        if acknowledged {
            pragmas_honored += 1;
        } else {
            findings.push(f);
        }
    }

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings.dedup();

    LintReport {
        findings,
        files_scanned: ws.files.len(),
        pragmas_honored,
        parse_ms: None,
    }
}

/// Escape a string for JSON output (shared with the SARIF emitter).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the machine-readable report (stable field order, findings
/// sorted — byte-identical across runs on identical input).
pub fn to_json(report: &LintReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"rule_count\": {},\n", RULES.len()));
    s.push_str(&format!(
        "  \"pragmas_honored\": {},\n",
        report.pragmas_honored
    ));
    if let Some(ms) = report.parse_ms {
        s.push_str(&format!("  \"parse_ms\": {ms},\n"));
    }
    s.push_str(&format!("  \"deny_findings\": {},\n", report.deny_count()));
    s.push_str(&format!("  \"warn_findings\": {},\n", report.warn_count()));
    s.push_str("  \"counts\": {");
    let counts = report.counts();
    for (i, (id, n)) in counts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{id}\": {n}"));
    }
    s.push_str("},\n");
    s.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"column\": {}, \"message\": \"{}\"}}",
            f.rule,
            f.severity.label(),
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}
