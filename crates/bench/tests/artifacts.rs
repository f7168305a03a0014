//! Guard for the committed bench artifacts: every `BENCH_X<n>.json`
//! named in `EXPERIMENTS.md` must actually exist at the repo root and
//! open with the current schema version. PR 5 documented
//! `BENCH_X19.json` without committing it; this test turns that class
//! of stale-artifact claim into a CI failure.

use qec_bench::BENCH_SCHEMA_VERSION;

#[test]
fn every_artifact_named_in_experiments_md_is_committed_with_the_schema_version() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md reads");
    let mut ids: Vec<String> = Vec::new();
    let mut rest = text.as_str();
    while let Some(pos) = rest.find("BENCH_X") {
        rest = &rest[pos + "BENCH_X".len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if !digits.is_empty() && rest[digits.len()..].starts_with(".json") {
            let id = format!("X{digits}");
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    assert!(
        ["X16", "X17", "X18", "X19", "X20", "X21", "X22", "X23", "X24"]
            .iter()
            .all(|id| ids.iter().any(|have| have == id)),
        "EXPERIMENTS.md should name the X16–X24 artifacts, found {ids:?}"
    );
    // `git ls-files` distinguishes committed artifacts from files that
    // merely exist in the working tree (the PR 6 failure mode was an
    // artifact regenerated locally but never staged). Skip the tracking
    // check gracefully where git or the repo metadata is unavailable
    // (e.g. a source tarball).
    let tracked: Option<String> = std::process::Command::new("git")
        .args(["ls-files", "--", "BENCH_X*.json"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).into_owned());
    for id in &ids {
        let path = root.join(format!("BENCH_{id}.json"));
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} is named in EXPERIMENTS.md but not committed: {e}",
                path.display()
            )
        });
        let want = format!("{{\"schema_version\":{BENCH_SCHEMA_VERSION},");
        assert!(
            body.starts_with(&want),
            "{}: artifact does not open with schema_version {BENCH_SCHEMA_VERSION}",
            path.display()
        );
        if let Some(listing) = &tracked {
            assert!(
                listing.lines().any(|l| l == format!("BENCH_{id}.json")),
                "BENCH_{id}.json exists but is not git-tracked — run `git add` on it"
            );
        }
    }
}

/// `report` caps an artifact's span dump at this many spans.
const MAX_SPANS: usize = 2048;
/// Size ceiling for one committed artifact.
const MAX_BYTES: usize = 1 << 20;

#[test]
fn every_committed_artifact_is_capped_in_spans_and_size() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).expect("repo root lists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_X") && name.ends_with(".json")) {
            continue;
        }
        seen += 1;
        let body = std::fs::read_to_string(&path).expect("artifact reads");
        assert!(
            body.len() <= MAX_BYTES,
            "{name} is {} bytes, over the {MAX_BYTES}-byte ceiling",
            body.len()
        );
        let spans = body.matches("\"dur_ns\":").count();
        assert!(
            spans <= MAX_SPANS,
            "{name} records {spans} spans, over the cap of {MAX_SPANS}"
        );
    }
    assert!(seen > 0, "no BENCH_X*.json artifact found");
}
