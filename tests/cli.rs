//! End-to-end tests of the `qec` command line binary.

use std::process::Command;

fn qec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qec"))
}

#[test]
fn compiles_and_evaluates_a_full_query() {
    let out = qec()
        .args([
            "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
            "--n",
            "16",
            "--evaluate",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("LOGDAPB"), "{text}");
    assert!(text.contains("matches the RAM baseline"), "{text}");
}

#[test]
fn projective_query_uses_two_families() {
    let out = qec()
        .args(["Q(a, c) :- R(a, b), S(b, c)", "--n", "16", "--evaluate"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("da-fhtw"), "{text}");
    assert!(text.contains("family 2"), "{text}");
}

#[test]
fn csv_loading_and_proof_printing() {
    let dir = std::env::temp_dir().join(format!("qec-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("edges.csv");
    std::fs::write(&csv, "0,1\n1,2\n0,2\n# comment\n").unwrap();
    let out = qec()
        .args([
            "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
            "--n",
            "8",
            "--evaluate",
            "--proof",
            "--load",
            &format!("R={}", csv.display()),
            "--load",
            &format!("S={}", csv.display()),
            "--load",
            &format!("T={}", csv.display()),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("≥  1·h(ABC)"), "{text}"); // the Shannon-flow inequality
    assert!(text.contains("1 result tuples"), "{text}"); // the one triangle
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["Q(a) :- R(a, a)"],                   // repeated variable
        vec!["Q(a) :- R(a)", "--deg", "nonsense"], // malformed --deg
        vec!["Q(a) :- R(a)", "--load", "Z=/no/file", "--evaluate"], // unknown atom
        vec!["--n", "8"],                          // missing query
    ] {
        let out = qec().args(&args).output().expect("runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn netlist_and_dot_outputs() {
    let dir = std::env::temp_dir().join(format!("qec-cli-dot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("plan.dot");
    let netlist = dir.join("circuit.netlist");
    let out = qec()
        .args([
            "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
            "--n",
            "4",
            "--dot",
            dot.to_str().unwrap(),
            "--netlist",
            netlist.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("digraph rc {"));
    assert!(dot_text.contains("shape=box"));
    // the netlist has one line per wire its header declares, and its
    // logic lines add up to the word-circuit size the CLI printed
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed_gates: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("word circuit: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no word-circuit size in {stdout}"));
    let net_text = std::fs::read_to_string(&netlist).unwrap();
    let mut lines = net_text.lines();
    let header = lines.next().unwrap();
    let count = |key: &str| -> usize {
        header
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {header:?}"))
    };
    assert!(header.starts_with("qec-netlist v1 "), "{header}");
    assert!(count("inputs=") > 0);
    let body: Vec<&str> = lines.collect();
    let (output_line, gate_lines) = body.split_last().unwrap();
    assert!(output_line.starts_with("output "), "{output_line}");
    assert_eq!(gate_lines.len(), count("wires="));
    let logic = gate_lines
        .iter()
        .filter(|l| !matches!(l.split_whitespace().nth(1), Some("input" | "const")))
        .count();
    assert_eq!(logic, printed_gates);
    std::fs::remove_dir_all(&dir).ok();
}
