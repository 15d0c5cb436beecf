//! SARIF 2.1.0 output for CI annotation surfaces.
//!
//! GitHub (and most code-scanning UIs) ingest SARIF directly, turning
//! findings into inline PR annotations. The emitter mirrors `to_json`'s
//! guarantees: stable field order, findings already sorted by the lint
//! pass, byte-identical output across runs on identical input — no
//! timestamps, no absolute paths, no invocation metadata.
//!
//! Hand-rolled like everything else in this crate: the workspace is
//! offline, so no serde. The document shape is the minimum GitHub's
//! ingester requires: `version`, one `run` with a `tool.driver` carrying
//! the full rule catalog, and one `result` per finding referencing its
//! rule by index.

use crate::rules::RULES;
use crate::{json_escape, LintReport, Severity};

/// Render a [`LintReport`] as a SARIF 2.1.0 document.
pub fn to_sarif(report: &LintReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"semloc-lint\",\n");
    s.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&format!(
            "            {{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
            r.id,
            json_escape(r.alias),
            json_escape(r.summary),
            level(r.severity)
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n");
    s.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|r| r.id == f.rule)
            .unwrap_or_default();
        s.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
            f.rule,
            rule_index,
            level(f.severity),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line,
            f.col
        ));
    }
    if !report.findings.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

/// SARIF `level` for a finding severity.
fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Warn => "warning",
        Severity::Deny => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn report(findings: Vec<Finding>) -> LintReport {
        LintReport {
            findings,
            files_scanned: 1,
            pragmas_honored: 0,
            parse_ms: None,
        }
    }

    #[test]
    fn sarif_document_has_schema_rules_and_results() {
        let r = report(vec![Finding {
            rule: "no-float-in-stats-accumulation",
            severity: Severity::Deny,
            file: "crates/core/src/lib.rs".into(),
            line: 7,
            col: 13,
            message: "float `+=` fold on stats field `lat`".into(),
        }]);
        let doc = to_sarif(&r);
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"semloc-lint\""));
        assert!(doc.contains("\"ruleId\": \"no-float-in-stats-accumulation\""));
        assert!(doc.contains("\"level\": \"error\""));
        assert!(doc.contains("\"uri\": \"crates/core/src/lib.rs\""));
        assert!(doc.contains("\"startLine\": 7"));
        assert!(doc.contains("\"startColumn\": 13"));
        // The full catalog rides along so annotation UIs can show summaries.
        for rule in RULES.iter() {
            assert!(doc.contains(&format!("\"id\": \"{}\"", rule.id)));
        }
    }

    #[test]
    fn warn_findings_map_to_warning_level() {
        let r = report(vec![Finding {
            rule: "snapshot-coverage",
            severity: Severity::Warn,
            file: "crates/mem/src/x.rs".into(),
            line: 1,
            col: 1,
            message: "embeds checkpointed state".into(),
        }]);
        assert!(to_sarif(&r).contains("\"level\": \"warning\""));
    }

    #[test]
    fn empty_report_is_well_formed_and_deterministic() {
        let a = to_sarif(&report(vec![]));
        let b = to_sarif(&report(vec![]));
        assert_eq!(a, b);
        assert!(a.contains("\"results\": []"));
    }
}
