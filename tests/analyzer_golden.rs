//! Golden snapshot of the static analyzer's JSON report over the `data/`
//! corpus — the same report `nestdb analyze --format json` emits and CI
//! gates on. Pins diagnostic codes, spans, rule citations, and certificate
//! fields: an accidental change to any of them (all stable contracts per
//! DESIGN.md §11) shows up as snapshot drift.
//!
//! Refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test analyzer_golden
//! ```

use nestdb::check::CorpusReport;
use nestdb::object::text::parse_database;
use nestdb::object::Governor;
use nestdb::object::Universe;
use nestdb::ThreadPool;
use nestdb::{Session, Store};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {name} ({e}); create it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        actual, expected,
        "snapshot {name} drifted; if the change is intentional refresh with UPDATE_GOLDEN=1"
    );
}

/// The corpus CI analyzes in deny mode: every query file in `data/`
/// against the graph database schema. The snapshot is the full JSON
/// report; on top of it, the acceptance bar of the analyzer — every
/// corpus query certified, zero diagnostics — is asserted directly.
#[test]
fn analyzer_json_report_over_data_corpus() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("data");
    let mut universe = Universe::new();
    let db = std::fs::read_to_string(data.join("graph.no")).unwrap();
    let (_schema, instance) = parse_database(&db, &mut universe).unwrap();
    let session = Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(universe, instance))))
        .build();

    let mut report = CorpusReport::default();
    for name in ["queries.calc", "tc.dl"] {
        let src = std::fs::read_to_string(data.join(name)).unwrap();
        // repo-relative names keep the snapshot machine-independent
        report.add_file(&session, &format!("data/{name}"), &src);
    }

    assert!(!report.entries.is_empty(), "corpus went missing");
    assert!(
        report.all_certified(),
        "every corpus query must receive a certificate"
    );
    assert!(
        !report.has_diagnostics(),
        "corpus must be clean: {}",
        report.render_text()
    );

    let mut json = report.to_json();
    json.push('\n');
    check_golden("analyze.json.golden", &json);
}

/// The certificates must also be *sound*: every corpus query the analyzer
/// marks range restricted evaluates on the actual corpus database without
/// a range-restriction failure. (The property test in `differential.rs`
/// covers random instances; this pins the shipped corpus itself.)
#[test]
fn corpus_certificates_hold_on_the_corpus_database() {
    use nestdb::core::parse_query;
    use nestdb::core::ranges::safe_eval_pooled;

    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("data");
    let mut universe = Universe::new();
    let db = std::fs::read_to_string(data.join("graph.no")).unwrap();
    let (schema, instance) = parse_database(&db, &mut universe).unwrap();

    let src = std::fs::read_to_string(data.join("queries.calc")).unwrap();
    for line in src.lines() {
        let qsrc = line.trim();
        if qsrc.is_empty() || qsrc.starts_with('%') {
            continue;
        }
        let analysis = nestdb::analysis::analyze_calc(&schema, qsrc, &mut universe);
        assert!(analysis.is_rr_safe(), "{qsrc}: {:?}", analysis.diagnostics);
        let q = parse_query(qsrc, &mut universe).unwrap();
        safe_eval_pooled(
            &instance,
            &q,
            &Governor::default(),
            &ThreadPool::sequential(),
        )
        .unwrap_or_else(|e| panic!("certified query failed to evaluate: {qsrc}: {e}"));
    }
}
