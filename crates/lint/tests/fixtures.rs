//! Per-rule fixture tests: every rule fires on a seeded violation with the
//! right rule id, file and line, stays quiet on conforming code, and honors
//! `// semloc-lint: allow(...)` pragmas.

use semloc_lint::rules::{
    analyze, check_env_registry, check_refcell_borrow_discipline, check_snapshot_coverage,
    check_snapshot_field_coverage, parse_env_registry, parse_manifest, rule, RULES,
};
use semloc_lint::{
    lint, to_json, FileKind, Finding, LexData, LintReport, Severity, SourceFile, Workspace,
};
use std::path::PathBuf;

fn fixture(crate_dir: &str, kind: FileKind, content: &str) -> SourceFile {
    let sub = match kind {
        FileKind::LibSrc => "src/fixture.rs",
        FileKind::Bin => "src/bin/fixture.rs",
        FileKind::TestsDir => "tests/fixture.rs",
        FileKind::Benches => "benches/fixture.rs",
        FileKind::Examples => "examples/fixture.rs",
    };
    SourceFile::fixture(
        crate_dir,
        kind,
        &format!("crates/{crate_dir}/{sub}"),
        content,
    )
}

/// A minimal workspace for `lint()` tests: the given files, manifest,
/// env registry and README text.
fn ws_fixture(
    files: Vec<SourceFile>,
    manifest_text: &str,
    registry_text: &str,
    readme: &str,
) -> Workspace {
    let (manifest, manifest_findings) = parse_manifest(manifest_text, "manifest.txt");
    let (env_registry, env_registry_findings) =
        parse_env_registry(registry_text, "env_registry.txt");
    Workspace {
        root: PathBuf::from("."),
        files,
        manifest,
        manifest_findings,
        manifest_path: "manifest.txt".into(),
        env_registry,
        env_registry_findings,
        env_registry_path: "env_registry.txt".into(),
        readme: readme.into(),
    }
}

/// Run the full `lint()` pass over one core-crate library file holding
/// `body` followed by the `*Stats` declaration its float folds resolve
/// against. Declaration and fold share the file because `lint()` looks a
/// finding's pragmas up in the file that holds the finding.
fn lint_stats_fold(body: &str) -> LintReport {
    let src = format!("{body}pub struct DbgStats {{ pub drift: f64 }}\n");
    lint(&ws_fixture(
        vec![fixture("core", FileKind::LibSrc, &src)],
        "",
        "",
        "",
    ))
}

/// A D6 violation on one line.
const FOLD: &str = "pub fn f(s: &mut DbgStats) { s.drift += 1.0; }\n";

#[track_caller]
fn assert_fires(findings: &[Finding], rule_id: &str, line: u32) {
    assert!(
        findings.iter().any(|f| f.rule == rule_id && f.line == line),
        "expected {rule_id} at line {line}, got: {findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Pragmas (carried by D6 through the full `lint()` pass)
// ---------------------------------------------------------------------------

#[test]
fn pragma_suppresses_own_line_and_next_line() {
    let own = "pub fn f(s: &mut DbgStats) { s.drift += 1.0; } \
               // semloc-lint: allow(no-float-in-stats-accumulation): test\n";
    let r = lint_stats_fold(own);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.pragmas_honored, 1);

    let above =
        format!("// semloc-lint: allow(no-float-in-stats-accumulation): debug-only\n{FOLD}");
    let r = lint_stats_fold(&above);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.pragmas_honored, 1);
}

#[test]
fn pragma_does_not_reach_two_lines_down() {
    let src = format!("// semloc-lint: allow(d6): too far away\nfn pad() {{}}\n{FOLD}");
    let f = lint_stats_fold(&src).findings;
    assert_fires(&f, "no-float-in-stats-accumulation", 3);
}

#[test]
fn pragma_is_rule_scoped() {
    // A D4 pragma does not excuse a D6 violation on the next line.
    let src = format!("// semloc-lint: allow(snapshot-coverage): wrong rule\n{FOLD}");
    let f = lint_stats_fold(&src).findings;
    assert_fires(&f, "no-float-in-stats-accumulation", 2);
}

#[test]
fn pragma_accepts_aliases_and_all() {
    let alias = format!("// semloc-lint: allow(d6): alias form\n{FOLD}");
    let r = lint_stats_fold(&alias);
    assert!(r.findings.is_empty(), "{:?}", r.findings);

    let all = format!("// semloc-lint: allow(all): kitchen sink\n{FOLD}");
    let r = lint_stats_fold(&all);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn doc_comments_never_carry_pragmas() {
    // A doc comment quoting the pragma syntax must not suppress anything.
    let src = format!("/// semloc-lint: allow(d6): just documentation\n{FOLD}");
    let f = lint_stats_fold(&src).findings;
    assert_fires(&f, "no-float-in-stats-accumulation", 2);
}

// ---------------------------------------------------------------------------
// D4: snapshot-coverage
// ---------------------------------------------------------------------------

fn d4_run(manifest_text: &str, files: &[SourceFile]) -> Vec<Finding> {
    let (manifest, mut findings) = parse_manifest(manifest_text, "manifest.txt");
    let lexed: Vec<LexData> = files.iter().map(|f| LexData::of(&f.content)).collect();
    let pairs: Vec<(&SourceFile, &LexData)> = files.iter().zip(lexed.iter()).collect();
    let ctxs = analyze(&pairs);
    findings.extend(check_snapshot_coverage(&ctxs, &manifest, "manifest.txt"));
    findings
}

const COVERED: &str = "pub struct Table { v: Vec<u64> }\n\
                       impl Snapshot for Table {\n\
                       \x20   fn save(&self, _w: &mut W) {}\n\
                       }\n";

#[test]
fn d4_clean_when_manifest_and_coverage_agree() {
    let files = [fixture("core", FileKind::LibSrc, COVERED)];
    assert!(d4_run("core/Table snapshot\n", &files).is_empty());
}

#[test]
fn d4_fires_when_manifest_entry_loses_coverage() {
    let files = [fixture(
        "core",
        FileKind::LibSrc,
        "pub struct Table { v: Vec<u64> }\n",
    )];
    let f = d4_run("core/Table snapshot\n", &files);
    assert_fires(&f, "snapshot-coverage", 1);
    assert!(f[0].file == "manifest.txt", "{f:?}");
}

#[test]
fn d4_fires_on_mechanism_mismatch() {
    let files = [fixture("core", FileKind::LibSrc, COVERED)];
    let f = d4_run("core/Table state\n", &files);
    assert_fires(&f, "snapshot-coverage", 1);
    assert!(f[0].message.contains("mechanism"), "{f:?}");
}

#[test]
fn d4_fires_when_coverage_is_unmanifested() {
    let files = [fixture("core", FileKind::LibSrc, COVERED)];
    let f = d4_run("", &files);
    // Reported at the impl site, inside the fixture file.
    assert_fires(&f, "snapshot-coverage", 2);
    assert!(f[0].file.ends_with("src/fixture.rs"), "{f:?}");
}

#[test]
fn d4_save_state_override_counts_as_state_mechanism() {
    let src = "pub struct P { n: u64 }\n\
               impl Prefetcher for P {\n\
               \x20   fn save_state(&self, _w: &mut W) {}\n\
               }\n";
    let files = [fixture("baselines", FileKind::LibSrc, src)];
    assert!(d4_run("baselines/P state\n", &files).is_empty());
}

#[test]
fn d4_composition_heuristic_warns() {
    let src = "pub struct Table { v: Vec<u64> }\n\
               impl Snapshot for Table { fn save(&self) {} }\n\
               pub struct Wrapper { inner: Table }\n";
    let files = [fixture("core", FileKind::LibSrc, src)];
    let f = d4_run("core/Table snapshot\n", &files);
    assert_fires(&f, "snapshot-coverage", 3);
    let w = f.iter().find(|x| x.line == 3).unwrap();
    assert_eq!(w.severity, Severity::Warn, "heuristic is warn-level");
    assert!(w.message.contains("Wrapper"), "{w:?}");
}

#[test]
fn d4_composition_heuristic_sees_through_use_renames() {
    // `use X as Y` must not let an embedded state type escape the
    // heuristic: the field is written with the alias, the manifest names
    // the original.
    let table = fixture("core", FileKind::LibSrc, COVERED);
    let wrapper = SourceFile::fixture(
        "core",
        FileKind::LibSrc,
        "crates/core/src/wrap.rs",
        "use crate::fixture::Table as Tbl;\npub struct Wrapper { inner: Tbl }\n",
    );
    let f = d4_run("core/Table snapshot\n", &[table, wrapper]);
    let w = f
        .iter()
        .find(|x| x.file == "crates/core/src/wrap.rs")
        .expect("renamed embedding must still warn");
    assert_eq!(w.rule, "snapshot-coverage");
    assert_eq!(w.line, 2);
    assert_eq!(w.severity, Severity::Warn);
    assert!(w.message.contains("Wrapper"), "{w:?}");

    // Grouped renames resolve too.
    let grouped = SourceFile::fixture(
        "core",
        FileKind::LibSrc,
        "crates/core/src/wrap.rs",
        "use crate::fixture::{Table as Tbl, Other as O};\npub struct Wrapper { inner: Tbl }\n",
    );
    let table = fixture("core", FileKind::LibSrc, COVERED);
    let f = d4_run("core/Table snapshot\n", &[table, grouped]);
    assert!(
        f.iter().any(|x| x.file == "crates/core/src/wrap.rs"),
        "grouped rename escaped the heuristic: {f:?}"
    );
}

#[test]
fn d4_malformed_manifest_line_is_a_deny_finding() {
    let f = d4_run("core/Table teleport\n", &[]);
    assert!(
        f.iter()
            .any(|x| x.rule == "snapshot-coverage" && x.severity == Severity::Deny),
        "{f:?}"
    );
}

// ---------------------------------------------------------------------------
// End-to-end: seeded violations through `lint()` + JSON shape
// ---------------------------------------------------------------------------

#[test]
fn seeded_workspace_fires_every_rule_with_positions() {
    let files = vec![
        SourceFile::fixture(
            "mem",
            FileKind::LibSrc,
            "crates/mem/src/bad.rs",
            "pub struct Table {\n\
             \x20   v: Vec<u64>,\n\
             \x20   tick: u64,\n\
             }\n\
             impl Snapshot for Table {\n\
             \x20   fn save(&self, w: &mut W) { w.bytes(&self.v); w.u64(self.tick); }\n\
             \x20   fn restore(&mut self, r: &mut R) -> E { self.v = r.bytes()?; Ok(()) }\n\
             }\n\
             impl Core {\n\
             \x20   fn step(&mut self) {\n\
             \x20       let g = self.shared.borrow_mut();\n\
             \x20       self.advance(1);\n\
             \x20   }\n\
             }\n",
        ),
        SourceFile::fixture(
            "cpu",
            FileKind::LibSrc,
            "crates/cpu/src/badstats.rs",
            "pub struct LatStats { pub sum: f64 }\n\
             fn fold(s: &mut LatStats, l: f64) { s.sum += l; }\n",
        ),
        SourceFile::fixture(
            "harness",
            FileKind::LibSrc,
            "crates/harness/src/knob.rs",
            READS_KNOB,
        ),
        SourceFile::fixture(
            "core",
            FileKind::LibSrc,
            "crates/core/src/stale.rs",
            "// semloc-lint: allow(d6): nothing left to excuse\npub fn f() {}\n",
        ),
    ];
    let report = lint(&ws_fixture(
        files,
        "mem/Ghost snapshot\nmem/Table snapshot\n",
        "",
        "",
    ));

    let expect = [
        ("snapshot-coverage", "manifest.txt", 1),
        (
            "no-float-in-stats-accumulation",
            "crates/cpu/src/badstats.rs",
            2,
        ),
        ("snapshot-field-coverage", "crates/mem/src/bad.rs", 3),
        ("refcell-borrow-discipline", "crates/mem/src/bad.rs", 11),
        ("env-var-registry", "crates/harness/src/knob.rs", 2),
        ("stale-pragma", "crates/core/src/stale.rs", 1),
    ];
    for (rule_id, file, line) in expect {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == rule_id && f.file == file && f.line == line),
            "expected {rule_id} at {file}:{line}, got: {:?}",
            report.findings
        );
    }
    for r in &RULES {
        assert!(
            expect.iter().any(|(id, ..)| *id == r.id),
            "rule {} is not seeded",
            r.id
        );
    }

    // Findings are sorted by (file, line, col, rule) for stable output.
    let keys: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.col, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);

    // JSON shape: stable top-level keys, one entry per finding, valid
    // per-rule counts.
    let json = to_json(&report);
    for key in [
        "\"version\": 1",
        "\"files_scanned\": 4",
        "\"rule_count\": 6",
        "\"pragmas_honored\"",
        "\"deny_findings\"",
        "\"warn_findings\"",
        "\"counts\"",
        "\"findings\"",
    ] {
        assert!(json.contains(key), "missing {key} in JSON:\n{json}");
    }
    assert_eq!(
        json.matches("{\"rule\": ").count(),
        report.findings.len(),
        "one JSON object per finding"
    );
    for (rule_id, _, _) in expect {
        assert!(json.contains(&format!("\"rule\": \"{rule_id}\"")));
    }
}

#[test]
fn rule_lookup_resolves_ids_and_aliases() {
    for (id, alias) in [
        ("snapshot-coverage", "d4"),
        ("no-float-in-stats-accumulation", "d6"),
        ("snapshot-field-coverage", "d8"),
        ("refcell-borrow-discipline", "d9"),
        ("env-var-registry", "d10"),
        ("stale-pragma", "d11"),
    ] {
        assert_eq!(rule(id).unwrap().id, id);
        assert_eq!(rule(alias).unwrap().id, id);
        assert!(!rule(id).unwrap().explain.is_empty());
    }
    assert!(rule("no-such-rule").is_none());
    // Retired ids (now enforced by clippy or a test) resolve to nothing,
    // so D11 flags any pragma still naming them.
    for retired in ["no-unwrap", "d1", "d2", "d3", "d5", "d7"] {
        assert!(rule(retired).is_none(), "{retired} still resolves");
    }
}

#[test]
fn empty_report_serializes_cleanly() {
    let report = LintReport {
        findings: Vec::new(),
        files_scanned: 0,
        pragmas_honored: 0,
        parse_ms: None,
    };
    let json = to_json(&report);
    assert!(json.contains("\"deny_findings\": 0"));
    assert!(json.contains("\"findings\": []"), "{json}");
}

// ---------------------------------------------------------------------------
// D6: no-float-in-stats-accumulation
// ---------------------------------------------------------------------------

fn d6_run(files: &[SourceFile]) -> Vec<Finding> {
    let lexed: Vec<LexData> = files.iter().map(|f| LexData::of(&f.content)).collect();
    let pairs: Vec<(&SourceFile, &LexData)> = files.iter().zip(lexed.iter()).collect();
    semloc_lint::rules::check_float_stats(&analyze(&pairs))
}

#[test]
fn d6_fires_on_float_fold_in_stats_struct() {
    let decl = fixture(
        "cpu",
        FileKind::LibSrc,
        "pub struct CoreStats { pub cycles: u64, pub avg_lat: f64 }\n",
    );
    let fold = fixture(
        "cpu",
        FileKind::LibSrc,
        "fn fold(s: &mut super::CoreStats, l: f64) {\n    s.avg_lat += l;\n}\n",
    );
    let f = d6_run(&[decl, fold]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-float-in-stats-accumulation");
    assert_eq!(f[0].line, 2);
    assert!(f[0].message.contains("avg_lat"), "{}", f[0].message);
    assert!(f[0].message.contains("CoreStats"), "{}", f[0].message);
}

#[test]
fn d6_infers_types_across_files_and_ignores_integer_folds() {
    let decl = fixture(
        "mem",
        FileKind::LibSrc,
        "pub struct CacheStats { pub hits: u64, pub miss_rate: f32 }\n",
    );
    // Integer fold on the same struct: fine. Float fold in a *different*
    // sim crate still resolves against the declaration.
    let ok = fixture(
        "mem",
        FileKind::LibSrc,
        "fn tally(s: &mut CacheStats) { s.hits += 1; }\n",
    );
    let bad = fixture(
        "cpu",
        FileKind::LibSrc,
        "fn merge(s: &mut CacheStats, r: f32) { s.miss_rate += r; }\n",
    );
    let f = d6_run(&[decl, ok, bad]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].file.contains("cpu"), "{f:?}");
}

#[test]
fn d6_quiet_on_derived_rate_methods_and_non_stats_structs() {
    // Rate getters compute floats at read time — no fold, no finding; and
    // float accumulation on a non-Stats struct is out of scope.
    let stats = fixture(
        "cpu",
        FileKind::LibSrc,
        "pub struct CpuStats { pub instructions: u64, pub cycles: u64 }\n\
         impl CpuStats {\n\
         \x20   pub fn ipc(&self) -> f64 { self.instructions as f64 / self.cycles as f64 }\n\
         }\n",
    );
    let other = fixture(
        "bandit",
        FileKind::LibSrc,
        "pub struct Ema { pub value: f64 }\n\
         fn update(e: &mut Ema, x: f64) { e.value += x; }\n",
    );
    assert!(d6_run(&[stats, other]).is_empty());
}

#[test]
fn d6_exempts_test_code_and_non_sim_crates() {
    let decl = fixture(
        "cpu",
        FileKind::LibSrc,
        "pub struct RunStats { pub score: f64 }\n",
    );
    let test_fold = fixture(
        "cpu",
        FileKind::TestsDir,
        "fn t(s: &mut RunStats) { s.score += 1.0; }\n",
    );
    // The harness crate is not sim state; its folds are out of D6 scope.
    let harness_fold = fixture(
        "harness",
        FileKind::LibSrc,
        "fn f(s: &mut RunStats) { s.score += 1.0; }\n",
    );
    assert!(d6_run(&[decl, test_fold, harness_fold]).is_empty());
}

// ---------------------------------------------------------------------------
// D8: snapshot-field-coverage
// ---------------------------------------------------------------------------

fn d8_run(manifest_text: &str, files: &[SourceFile]) -> Vec<Finding> {
    let (manifest, _) = parse_manifest(manifest_text, "manifest.txt");
    let lexed: Vec<LexData> = files.iter().map(|f| LexData::of(&f.content)).collect();
    let pairs: Vec<(&SourceFile, &LexData)> = files.iter().zip(lexed.iter()).collect();
    check_snapshot_field_coverage(&analyze(&pairs), &manifest)
}

const SNAP_FULL: &str = "pub struct Table {\n\
                         \x20   v: Vec<u64>,\n\
                         \x20   tick: u64,\n\
                         }\n\
                         impl Snapshot for Table {\n\
                         \x20   fn save(&self, w: &mut W) { w.bytes(&self.v); w.u64(self.tick); }\n\
                         \x20   fn restore(&mut self, r: &mut R) -> E { self.v = r.bytes()?; self.tick = r.u64()?; Ok(()) }\n\
                         }\n";

#[test]
fn d8_clean_when_every_field_is_saved_and_restored() {
    let files = [fixture("mem", FileKind::LibSrc, SNAP_FULL)];
    assert!(d8_run("mem/Table snapshot\n", &files).is_empty());
}

#[test]
fn d8_fires_on_field_missing_from_restore_at_the_declaration() {
    let src = SNAP_FULL.replace("self.tick = r.u64()?; ", "");
    let files = [fixture("mem", FileKind::LibSrc, src.as_str())];
    let f = d8_run("mem/Table snapshot\n", &files);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "snapshot-field-coverage");
    assert_eq!(f[0].severity, Severity::Deny);
    // The finding anchors on the field declaration (line 3: `tick`),
    // where the per-field pragma would go.
    assert_eq!((f[0].line, f[0].col), (3, 5), "{f:?}");
    assert!(f[0].message.contains("tick"), "{}", f[0].message);
    assert!(f[0].message.contains("restore body"), "{}", f[0].message);
}

#[test]
fn d8_fires_on_field_missing_from_save_and_from_both() {
    let no_save = SNAP_FULL.replace("w.u64(self.tick); ", "");
    let f = d8_run(
        "mem/Table snapshot\n",
        &[fixture("mem", FileKind::LibSrc, no_save.as_str())],
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("save body"), "{}", f[0].message);

    let neither = SNAP_FULL
        .replace("w.u64(self.tick); ", "")
        .replace("self.tick = r.u64()?; ", "");
    let f = d8_run(
        "mem/Table snapshot\n",
        &[fixture("mem", FileKind::LibSrc, neither.as_str())],
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(
        f[0].message.contains("save or restore body"),
        "{}",
        f[0].message
    );
}

#[test]
fn d8_helper_delegation_counts_as_a_reference() {
    // `self.v.save_into(w)` mentions the field: covered.
    let src = SNAP_FULL.replace("w.bytes(&self.v);", "self.v.save_into(w);");
    let files = [fixture("mem", FileKind::LibSrc, src.as_str())];
    assert!(d8_run("mem/Table snapshot\n", &files).is_empty());
}

#[test]
fn d8_scope_skips_state_mechanism_enums_and_unmanifested_structs() {
    // State-mechanism entries are out of D8 scope (save_state overrides
    // serialize through a different shape), as are enums (no named
    // fields) and structs that are not manifested at all.
    let state = "pub struct P { n: u64 }\n\
                 impl Prefetcher for P { fn save_state(&self, _w: &mut W) {} }\n";
    assert!(d8_run("mem/P state\n", &[fixture("mem", FileKind::LibSrc, state)]).is_empty());

    let enm = "pub enum Mode { A, B(u64) }\n\
               impl Snapshot for Mode {\n\
               \x20   fn save(&self, _w: &mut W) {}\n\
               \x20   fn restore(&mut self, _r: &mut R) -> E { Ok(()) }\n\
               }\n";
    assert!(d8_run(
        "mem/Mode snapshot\n",
        &[fixture("mem", FileKind::LibSrc, enm)]
    )
    .is_empty());

    let uncovered = SNAP_FULL.replace("self.tick = r.u64()?; ", "");
    assert!(d8_run("", &[fixture("mem", FileKind::LibSrc, uncovered.as_str())]).is_empty());
}

#[test]
fn d8_per_field_pragma_suppresses_through_lint() {
    // Config-derived fields carry the pragma on the declaration line; the
    // suppression runs through the full `lint()` pass.
    let src = "pub struct Table {\n\
               \x20   v: Vec<u64>,\n\
               \x20   // semloc-lint: allow(snapshot-field-coverage): set_mask is derived from cfg at construction\n\
               \x20   set_mask: u64,\n\
               }\n\
               impl Snapshot for Table {\n\
               \x20   fn save(&self, w: &mut W) { w.bytes(&self.v); }\n\
               \x20   fn restore(&mut self, r: &mut R) -> E { self.v = r.bytes()?; Ok(()) }\n\
               }\n";
    let report = lint(&ws_fixture(
        vec![fixture("mem", FileKind::LibSrc, src)],
        "mem/Table snapshot\n",
        "",
        "",
    ));
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "snapshot-field-coverage" || f.rule == "stale-pragma"),
        "{:?}",
        report.findings
    );
    assert!(report.pragmas_honored >= 1);
}

// ---------------------------------------------------------------------------
// D9: refcell-borrow-discipline
// ---------------------------------------------------------------------------

fn d9_run(files: &[SourceFile]) -> Vec<Finding> {
    let lexed: Vec<LexData> = files.iter().map(|f| LexData::of(&f.content)).collect();
    let pairs: Vec<(&SourceFile, &LexData)> = files.iter().zip(lexed.iter()).collect();
    check_refcell_borrow_discipline(&analyze(&pairs))
}

#[test]
fn d9_fires_on_guard_held_across_self_method_call() {
    let src = "impl Core {\n\
               \x20   fn step(&mut self) {\n\
               \x20       let mut l2 = self.shared.borrow_mut();\n\
               \x20       l2.tick();\n\
               \x20       self.advance(1);\n\
               \x20   }\n\
               }\n";
    let f = d9_run(&[fixture("mem", FileKind::LibSrc, src)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "refcell-borrow-discipline");
    assert_eq!(f[0].line, 3, "finding anchors on the `let` binding: {f:?}");
    assert!(f[0].message.contains("l2"), "{}", f[0].message);
    assert!(f[0].message.contains("line 5"), "{}", f[0].message);
}

#[test]
fn d9_fires_on_guard_held_across_second_borrow() {
    let src = "fn drain(a: &Handle, b: &Handle) {\n\
               \x20   let ga = a.borrow_mut();\n\
               \x20   let gb = b.borrow_mut();\n\
               \x20   merge(ga, gb);\n\
               }\n";
    let f = d9_run(&[fixture("harness", FileKind::LibSrc, src)]);
    // `ga` is alive at line 3's second borrow. (`gb` is also a guard but
    // sees no further hazard.)
    assert!(
        f.iter()
            .any(|x| x.line == 2 && x.message.contains("another borrow")),
        "{f:?}"
    );
}

#[test]
fn d9_quiet_on_temporaries_scoped_blocks_and_drop() {
    let src = "impl Core {\n\
               \x20   fn a(&mut self) {\n\
               \x20       self.shared.borrow_mut().tick();\n\
               \x20       self.advance(1);\n\
               \x20   }\n\
               \x20   fn b(&mut self) {\n\
               \x20       { let mut g = self.shared.borrow_mut(); g.tick(); }\n\
               \x20       self.advance(1);\n\
               \x20   }\n\
               \x20   fn c(&mut self) {\n\
               \x20       let g = self.shared.borrow();\n\
               \x20       let v = g.depth();\n\
               \x20       drop(g);\n\
               \x20       self.advance(v);\n\
               \x20   }\n\
               \x20   fn d(&mut self) {\n\
               \x20       let stats = *self.shared.borrow().stats();\n\
               \x20       self.record(stats);\n\
               \x20   }\n\
               }\n";
    assert!(d9_run(&[fixture("mem", FileKind::LibSrc, src)]).is_empty());
}

#[test]
fn d9_scope_is_refcell_crates_non_test_code_only() {
    let src = "impl Core {\n\
               \x20   fn step(&mut self) {\n\
               \x20       let g = self.shared.borrow_mut();\n\
               \x20       self.advance(1);\n\
               \x20   }\n\
               }\n";
    // Other crates do not share RefCell state; test code is exempt.
    assert!(d9_run(&[fixture("core", FileKind::LibSrc, src)]).is_empty());
    assert!(d9_run(&[fixture("mem", FileKind::TestsDir, src)]).is_empty());
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
    assert!(d9_run(&[fixture("mem", FileKind::LibSrc, &in_test)]).is_empty());
}

#[test]
fn d9_pragma_suppresses_a_justified_guard() {
    let src = "impl Core {\n\
               \x20   fn step(&mut self) {\n\
               \x20       // semloc-lint: allow(refcell-borrow-discipline): advance() never touches self.shared\n\
               \x20       let g = self.shared.borrow_mut();\n\
               \x20       self.advance(1);\n\
               \x20   }\n\
               }\n";
    let file = fixture("mem", FileKind::LibSrc, src);
    let raw = d9_run(std::slice::from_ref(&file));
    assert_eq!(raw.len(), 1, "finding must exist before suppression");
    let report = lint(&ws_fixture(vec![file], "", "", ""));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.pragmas_honored, 1);
}

// ---------------------------------------------------------------------------
// D10: env-var-registry
// ---------------------------------------------------------------------------

fn d10_run(files: &[SourceFile], registry_text: &str, readme: &str) -> Vec<Finding> {
    let (registry, mut findings) = parse_env_registry(registry_text, "env_registry.txt");
    let lexed: Vec<LexData> = files.iter().map(|f| LexData::of(&f.content)).collect();
    let pairs: Vec<(&SourceFile, &LexData)> = files.iter().zip(lexed.iter()).collect();
    findings.extend(check_env_registry(
        &analyze(&pairs),
        &registry,
        "env_registry.txt",
        readme,
    ));
    findings
}

const READS_KNOB: &str =
    "pub fn budget() -> u64 {\n    std::env::var(\"SEMLOC_FAKE\").map_or(0, |v| v.len() as u64)\n}\n";

#[test]
fn d10_clean_when_read_registered_and_documented() {
    let files = [fixture("harness", FileKind::LibSrc, READS_KNOB)];
    let f = d10_run(
        &files,
        "SEMLOC_FAKE  test knob\n",
        "Set `SEMLOC_FAKE` to test.",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d10_fires_on_unregistered_read_at_the_read_site() {
    let files = [fixture("harness", FileKind::LibSrc, READS_KNOB)];
    let f = d10_run(&files, "", "Set `SEMLOC_FAKE` to test.");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "env-var-registry");
    assert_eq!(f[0].line, 2, "{f:?}");
    assert!(
        f[0].message.contains("env_registry.txt"),
        "{}",
        f[0].message
    );
}

#[test]
fn d10_fires_on_undocumented_read_and_on_dead_registry_entry() {
    let files = [fixture("harness", FileKind::LibSrc, READS_KNOB)];
    let f = d10_run(&files, "SEMLOC_FAKE  test knob\n", "");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("README"), "{}", f[0].message);

    let f = d10_run(
        &files,
        "SEMLOC_FAKE  test knob\nSEMLOC_GHOST  removed knob\n",
        "Set `SEMLOC_FAKE` to test.",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].file.as_str(), f[0].line), ("env_registry.txt", 2));
    assert!(
        f[0].message.contains("no live read site"),
        "{}",
        f[0].message
    );
}

#[test]
fn d10_ignores_test_reads_writes_and_non_semloc_strings() {
    let src = "pub fn f() { let _ = format!(\"SEMLOC_DOC\"); }\n\
               pub fn w() { std::env::set_var(\"SEMLOC_SET\", \"1\"); std::env::remove_var(\"SEMLOC_SET\"); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   fn t() { let _ = std::env::var(\"SEMLOC_TESTONLY\"); }\n\
               }\n";
    let files = [
        fixture("harness", FileKind::LibSrc, src),
        fixture(
            "harness",
            FileKind::TestsDir,
            "fn t() { let _ = std::env::var(\"SEMLOC_ITEST\"); }\n",
        ),
    ];
    assert!(d10_run(&files, "", "").is_empty());
}

#[test]
fn d10_malformed_registry_line_is_a_deny_finding() {
    let f = d10_run(&[], "NOT_SEMLOC  desc\nSEMLOC_BARE\n", "");
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|x| x.message.contains("malformed")), "{f:?}");
}

#[test]
fn d10_pragma_suppresses_at_the_read_site_through_lint() {
    let src = "pub fn probe() -> bool {\n\
               \x20   // semloc-lint: allow(env-var-registry): transient debug probe, removed next PR\n\
               \x20   std::env::var(\"SEMLOC_DEBUG_PROBE\").is_ok()\n\
               }\n";
    let report = lint(&ws_fixture(
        vec![fixture("harness", FileKind::LibSrc, src)],
        "",
        "",
        "",
    ));
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "env-var-registry" || f.rule == "stale-pragma"),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// D11: stale-pragma (runs inside `lint()`)
// ---------------------------------------------------------------------------

#[test]
fn d11_fires_on_pragma_that_suppresses_nothing() {
    let report = lint_stats_fold(
        "// semloc-lint: allow(no-float-in-stats-accumulation): the fold below became a reset\n\
         pub fn f(s: &mut DbgStats) { s.drift = 0.0; }\n",
    );
    let f: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "stale-pragma")
        .collect();
    assert_eq!(f.len(), 1, "{:?}", report.findings);
    assert_eq!((f[0].line, f[0].col), (1, 1), "{f:?}");
    assert_eq!(f[0].severity, Severity::Deny);
    assert!(
        f[0].message.contains("no-float-in-stats-accumulation"),
        "{}",
        f[0].message
    );
}

#[test]
fn d11_quiet_when_the_pragma_earns_its_keep() {
    let report = lint_stats_fold(&format!(
        "// semloc-lint: allow(no-float-in-stats-accumulation): debug-only, never digested\n{FOLD}"
    ));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d11_flags_each_dead_entry_of_a_multi_rule_pragma() {
    // One entry suppresses, the other is stale: only the dead one is
    // flagged, and the live suppression still works.
    let report = lint_stats_fold(&format!(
        "// semloc-lint: allow(no-float-in-stats-accumulation, env-var-registry): only the fold is real\n{FOLD}"
    ));
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "stale-pragma")
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert!(stale[0].message.contains("env-var-registry"), "{stale:?}");
    assert!(report
        .findings
        .iter()
        .all(|f| f.rule != "no-float-in-stats-accumulation"));
}

#[test]
fn d11_flags_unknown_rule_names() {
    let report = lint_stats_fold(&format!(
        "// semloc-lint: allow(no-float-in-stats-acumulation): typo in the rule id\n{FOLD}"
    ));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "stale-pragma" && f.message.contains("unknown rule")),
        "{:?}",
        report.findings
    );
    // The typo'd pragma suppressed nothing, so the fold also survives.
    assert_fires(&report.findings, "no-float-in-stats-accumulation", 2);
}

#[test]
fn d11_stale_allow_all_is_flagged_and_never_self_excuses() {
    let report = lint_stats_fold(
        "// semloc-lint: allow(all): blanket with nothing underneath\n\
         pub fn f() -> u32 { 7 }\n",
    );
    assert!(
        report.findings.iter().any(|f| f.rule == "stale-pragma"),
        "allow(all) must not launder its own staleness: {:?}",
        report.findings
    );
}

#[test]
fn d11_explicit_acknowledgement_suppresses_staleness() {
    // The sanctioned escape hatch: a pragma naming stale-pragma on the
    // line above acknowledges a scan-invisible suppression.
    let report = lint_stats_fold(
        "// semloc-lint: allow(stale-pragma): the fold is behind cfg(slow_asserts)\n\
         // semloc-lint: allow(no-float-in-stats-accumulation): fires only under cfg(slow_asserts)\n\
         pub fn f(s: &mut DbgStats) { s.drift = 0.0; }\n",
    );
    assert!(
        report.findings.iter().all(|f| f.rule != "stale-pragma"),
        "{:?}",
        report.findings
    );
}

#[test]
fn d6_pragma_suppresses_a_justified_fold() {
    let report = lint_stats_fold(
        "fn f(s: &mut DbgStats, d: f64) {\n\
         \x20   // semloc-lint: allow(no-float-in-stats-accumulation): debug-only, never digested\n\
         \x20   s.drift += d;\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(
        report.pragmas_honored, 1,
        "the fold was found, then excused"
    );
}
