//! Experiment implementations X1–X23 (see `EXPERIMENTS.md`).

use qec_circuit::{
    aggregate as c_aggregate, brent_steps, encode_relation, join_degree_bounded,
    join_output_bounded, join_pk, lower_with, project as c_project, scan, AggOp, Builder,
    CompileOptions, Mode, SortKey, WireId,
};
use qec_core::{
    compile_fcq, naive_circuit, paper_cost, plan, triangle_heavy_light, AggregateQuery,
    OutputSensitive, Semiring,
};
use qec_entropy::{prove_bound, ProofStep};
use qec_query::baseline::evaluate_pairwise;
use qec_query::{bowtie, k_cycle, k_path, k_star, loomis_whitney, snowflake, triangle, Cq};
use qec_relation::{DcSet, DegreeConstraint, Var, VarSet};

use crate::{uniform_db, uniform_dc, vs, Table};

fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// X1 — Figure 1: the hand-built heavy/light triangle circuit has cost
/// `O(N^{3/2})` with all wires bounded.
pub fn x1_heavy_light() -> Table {
    let mut t = Table::new(
        "X1  Figure 1: heavy/light triangle relational circuit, cost O(N^1.5)",
        &["N", "paper_cost", "cost/N^1.5", "word_gates", "word_depth"],
    );
    let mut ratios = Vec::new();
    // The word lowering keeps every gate record (the circuit and its
    // cons table), so the word columns are filled through N=256 by
    // default. QEC_X1_LOWER_E=10 adds N=1024, which needs tens of GB.
    let lower_e: u32 = std::env::var("QEC_X1_LOWER_E")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    for e in [4u32, 6, 8, 10, 12] {
        let n = 1u64 << e;
        let (rc, _) = triangle_heavy_light(n);
        let cost = paper_cost(&rc).to_f64();
        let ratio = cost / (n as f64).powf(1.5);
        ratios.push(ratio);
        let (gates, depth) = if e <= lower_e {
            let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
            (
                lowered.circuit.size().to_string(),
                lowered.circuit.depth().to_string(),
            )
        } else {
            ("-".into(), "-".into())
        };
        t.row(vec![n.to_string(), f(cost), f(ratio), gates, depth]);
    }
    let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
        / ratios.iter().cloned().fold(f64::MAX, f64::min);
    t.verdict(format!(
        "cost/N^1.5 stays within a {spread:.1}x band across a 256x sweep — Θ(N^1.5) as claimed"
    ));
    t
}

/// X2 — Figure 2 / Theorem 3: PANDA-C's triangle circuit has Õ(1)
/// relational gates and cost Õ(N^{3/2}); the classical baseline is
/// `Θ(N³)`.
pub fn x2_panda_triangle() -> Table {
    let mut t = Table::new(
        "X2  Figure 2 / Thm 3: PANDA-C triangle vs naive O(N^3) baseline",
        &[
            "N",
            "rel_gates",
            "branches",
            "panda_cost",
            "naive_cost",
            "speedup",
            "cost/N^1.5",
            "planned",
        ],
    );
    let q = triangle();
    let mut last_speedup = 0.0;
    for e in [4u32, 6, 8, 10, 12] {
        let n = 1u64 << e;
        let dc = uniform_dc(&q, n);
        let p = compile_fcq(&q, &dc).expect("triangle compiles");
        let cost = paper_cost(&p.rc).to_f64();
        let (naive, _) = naive_circuit(&q, &dc).expect("naive compiles");
        let ncost = paper_cost(&naive).to_f64();
        last_speedup = ncost / cost;
        t.row(vec![
            n.to_string(),
            p.rc.nodes.len().to_string(),
            p.branches.to_string(),
            f(cost),
            f(ncost),
            f(ncost / cost),
            f(cost / (n as f64).powf(1.5)),
            plan(&q, &dc)
                .expect("triangle plans")
                .construction
                .name()
                .to_string(),
        ]);
    }
    t.verdict(format!(
        "PANDA-C wins by {last_speedup:.0}x at N=4096 and the gap grows as N^1.5/polylog — matching Thm 3 vs the classical circuit"
    ));
    t
}

/// X3 — Theorem 2: validated proof sequences exist for the whole corpus;
/// lengths are tiny compared to the `O(n^4·384^n)` worst case.
pub fn x3_proof_sequences() -> Table {
    let mut t = Table::new(
        "X3  Thm 2: proof sequences across the query corpus (all validated)",
        &[
            "query",
            "n",
            "LOGDAPB",
            "chain_cost",
            "tight",
            "steps",
            "d_steps",
        ],
    );
    let corpus: Vec<(&str, Cq, DcSet)> = {
        let mut v = Vec::new();
        for (name, q) in [
            ("triangle", triangle()),
            ("4-cycle", k_cycle(4)),
            ("5-cycle", k_cycle(5)),
            ("3-path", k_path(3)),
            ("4-star", k_star(4)),
            ("bowtie", bowtie()),
            ("LW(4)", loomis_whitney(4)),
            ("snowflake(3)", snowflake(3)),
        ] {
            let dc = uniform_dc(&q, 1 << 8);
            v.push((name, q, dc));
        }
        // degree-constrained variants
        let q = triangle();
        let mut dc = uniform_dc(&q, 1 << 8);
        dc.add(DegreeConstraint::degree(vs(&[1]), vs(&[1, 2]), 1 << 3));
        v.push(("triangle+deg", q, dc));
        let q = triangle();
        let mut dc = uniform_dc(&q, 1 << 8);
        dc.add(DegreeConstraint::fd(vs(&[1]), vs(&[1, 2])));
        v.push(("triangle+fd", q, dc));
        v
    };
    let mut all_tight = true;
    for (name, q, dc) in corpus {
        let bound = qec_entropy::polymatroid_bound(q.num_vars(), &dc, q.all_vars())
            .expect("bounded corpus");
        let proof = prove_bound(q.num_vars(), &dc, q.all_vars(), None).expect("provable corpus");
        qec_entropy::validate(&proof).expect("validated");
        let tight = proof.log_cost == bound.log_value;
        all_tight &= tight;
        let d_steps = proof
            .steps
            .iter()
            .filter(|s| matches!(s.step, ProofStep::Decomp { .. }))
            .count();
        t.row(vec![
            name.to_string(),
            q.num_vars().to_string(),
            f(bound.log_value.to_f64()),
            f(proof.log_cost.to_f64()),
            tight.to_string(),
            proof.steps.len().to_string(),
            d_steps.to_string(),
        ]);
    }
    t.verdict(if all_tight {
        "every corpus query has a validated proof sequence attaining LOGDAPB exactly".to_string()
    } else {
        "some chain certificates are non-tight (see `tight` column)".to_string()
    });
    t
}

/// X4 — Theorem 3: PANDA-C cost tracks `N + DAPB` across queries and a
/// degree-bound sweep.
pub fn x4_panda_cost() -> Table {
    let mut t = Table::new(
        "X4  Thm 3: PANDA-C cost vs N + DAPB under degree constraints",
        &[
            "query",
            "N",
            "deg",
            "LOGDAPB",
            "panda_cost",
            "cost/(N+DAPB)",
        ],
    );
    let n_exp = 8u32;
    let n = 1u64 << n_exp;
    let mut ratios: Vec<f64> = Vec::new();
    // triangle with a sweep of degree bounds on S
    for d in [1u64, 2, 4, 16, 64, 256] {
        let q = triangle();
        let mut dc = uniform_dc(&q, n);
        if d < n {
            dc.add(DegreeConstraint::degree(vs(&[1]), vs(&[1, 2]), d));
        }
        let p = compile_fcq(&q, &dc).expect("compiles");
        let cost = paper_cost(&p.rc).to_f64();
        let dapb = 2f64.powf(p.bound.log_value.to_f64());
        let ratio = cost / (3.0 * n as f64 + dapb);
        ratios.push(ratio);
        t.row(vec![
            "triangle".into(),
            n.to_string(),
            if d < n { d.to_string() } else { "-".into() },
            f(p.bound.log_value.to_f64()),
            f(cost),
            f(ratio),
        ]);
    }
    for (name, q) in [
        ("4-cycle", k_cycle(4)),
        ("2-path", k_path(2)),
        ("3-path", k_path(3)),
    ] {
        let dc = uniform_dc(&q, n);
        let p = compile_fcq(&q, &dc).expect("compiles");
        let cost = paper_cost(&p.rc).to_f64();
        let dapb = 2f64.powf(p.bound.log_value.to_f64());
        let ratio = cost / (q.atoms.len() as f64 * n as f64 + dapb);
        ratios.push(ratio);
        t.row(vec![
            name.into(),
            n.to_string(),
            "-".into(),
            f(p.bound.log_value.to_f64()),
            f(cost),
            f(ratio),
        ]);
    }
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    t.verdict(format!(
        "cost stays within a polylog factor (≤ {max:.0}x here) of N + DAPB across queries and degree bounds"
    ));
    t
}

/// X5 — Algs. 3 & 5: projection and aggregation circuits are `Õ(K)` size,
/// `Õ(1)` depth.
pub fn x5_project_aggregate() -> Table {
    let mut t = Table::new(
        "X5  Algs 3/5: projection & aggregation circuit scaling",
        &[
            "K",
            "proj_size",
            "proj_depth",
            "agg_size",
            "agg_depth",
            "size/K·log²K",
        ],
    );
    for e in [4u32, 6, 8, 10, 12, 14] {
        let k = 1usize << e;
        let mut b = Builder::new();
        let w = encode_relation(&mut b, vec![Var(0), Var(1)], k);
        let p = c_project(&mut b, &w, VarSet::singleton(Var(0)));
        let c = b.finish(p.flatten());
        let (ps, pd) = (c.size(), c.depth());
        let mut b = Builder::new();
        let w = encode_relation(&mut b, vec![Var(0), Var(1)], k);
        let a = c_aggregate(
            &mut b,
            &w,
            VarSet::singleton(Var(0)),
            AggOp::Sum(Var(1)),
            Var(5),
        );
        let c = b.finish(a.flatten());
        let (as_, ad) = (c.size(), c.depth());
        let norm = ps as f64 / (k as f64 * (e as f64).powi(2));
        t.row(vec![
            k.to_string(),
            ps.to_string(),
            pd.to_string(),
            as_.to_string(),
            ad.to_string(),
            f(norm),
        ]);
    }
    t.verdict(
        "size grows as K·log²K (sort-dominated), depth as log²K — Õ(K) size, Õ(1) depth"
            .to_string(),
    );
    t
}

/// X6 — Figure 3 / Alg. 6: primary-key join circuit is `Õ(M + N')`.
pub fn x6_pk_join() -> Table {
    let mut t = Table::new(
        "X6  Alg 6: primary-key join circuit, size Õ(M+N')",
        &["M", "N'", "size", "depth", "size/(M+N')log²"],
    );
    for e in [4u32, 6, 8, 10, 12] {
        let m = 1usize << e;
        let np = 2 * m;
        let mut b = Builder::new();
        let r = encode_relation(&mut b, vec![Var(0), Var(1)], m);
        let s = encode_relation(&mut b, vec![Var(1), Var(2)], np);
        let j = join_pk(&mut b, &r, &s);
        let c = b.finish(j.flatten());
        let denom = (m + np) as f64 * ((e + 2) as f64).powi(2);
        t.row(vec![
            m.to_string(),
            np.to_string(),
            c.size().to_string(),
            c.depth().to_string(),
            f(c.size() as f64 / denom),
        ]);
    }
    t.verdict("normalized size is flat: Õ(M+N') with polylog depth, vs O(M·N') for the naive all-pairs circuit".to_string());
    t
}

/// X7 — Figure 4 / Alg. 7: degree-bounded join is `Õ(MN + N')`, linear
/// in the input for fixed degree, vs the naive all-pairs `O(M·N')`,
/// quadratic. The interesting datum is where the polylog constants let
/// the asymptotics take over: the crossover falls near `M = N' ≈ 3.5k`.
pub fn x7_degree_join() -> Table {
    let mut t = Table::new(
        "X7  Alg 7: degree-bounded join Õ(MN+N') vs naive all-pairs O(M·N'), deg N = 2",
        &[
            "M = N'",
            "alg7_size",
            "naive_size",
            "win",
            "alg7 growth",
            "naive growth",
        ],
    );
    let mut prev: Option<(u64, u64)> = None;
    let mut crossover: Option<usize> = None;
    for e in [8u32, 9, 10, 11, 12, 13] {
        let m = 1usize << e;
        let mut b = Builder::new();
        let r = encode_relation(&mut b, vec![Var(0), Var(1)], m);
        let s = encode_relation(&mut b, vec![Var(1), Var(2)], m);
        let j = join_degree_bounded(&mut b, &r, &s, 2);
        let c = b.finish(j.flatten());
        // the naive circuit materializes all M·N' candidate pairs, each a
        // key comparator plus muxed output fields (~10 gates)
        let naive = (m * m * 10) as u64;
        let win = naive as f64 / c.size() as f64;
        if win >= 1.0 && crossover.is_none() {
            crossover = Some(m);
        }
        let (ag, ng) = match prev {
            Some((pa, pn)) => (
                format!("{:.2}x", c.size() as f64 / pa as f64),
                format!("{:.2}x", naive as f64 / pn as f64),
            ),
            None => ("-".into(), "-".into()),
        };
        prev = Some((c.size(), naive));
        t.row(vec![
            m.to_string(),
            c.size().to_string(),
            naive.to_string(),
            f(win),
            ag,
            ng,
        ]);
    }
    t.verdict(match crossover {
        Some(m) => format!(
            "Alg 7 grows ~2x per doubling (linear · polylog) vs 4x for all-pairs (quadratic); the crossover falls at M = N' ≈ {m}, beyond which the degree-bounded join wins by a factor growing linearly in M"
        ),
        None => "crossover not reached in this sweep; slopes (2x vs 4x per doubling) still show the asymptotics".to_string(),
    });
    t
}

/// X8 — Alg. 10: output-bounded join is `Õ(M + N + OUT)`.
pub fn x8_output_join() -> Table {
    let mut t = Table::new(
        "X8  Alg 10: output-bounded join, size Õ(M+N+OUT)",
        &["M=N", "OUT", "size", "size/(M+N+OUT)log³"],
    );
    for (m, out) in [
        (128usize, 32usize),
        (128, 128),
        (128, 1024),
        (256, 32),
        (512, 32),
        (512, 2048),
    ] {
        let mut b = Builder::new();
        let r = encode_relation(&mut b, vec![Var(0), Var(1)], m);
        let s = encode_relation(&mut b, vec![Var(1), Var(2)], m);
        let j = join_output_bounded(&mut b, &r, &s, out);
        let c = b.finish(j.flatten());
        let lg = (m as f64).log2();
        let denom = (2 * m + out) as f64 * lg.powi(3);
        t.row(vec![
            m.to_string(),
            out.to_string(),
            c.size().to_string(),
            f(c.size() as f64 / denom),
        ]);
    }
    t.verdict("size tracks M+N+OUT up to polylog — doubling M with OUT fixed roughly doubles size; growing OUT at fixed M adds only the OUT term".to_string());
    t
}

/// X9 — Theorem 5: output-sensitive circuits sized `Õ(N + 2^{da-fhtw} + OUT)`.
pub fn x9_output_sensitive() -> Table {
    let mut t = Table::new(
        "X9  Thm 5: output-sensitive two-family circuits",
        &[
            "query",
            "free",
            "da-fhtw",
            "count_cost",
            "query_cost(OUT)",
            "OUT",
            "worstcase_cost",
        ],
    );
    let cases: Vec<(&str, Cq)> = vec![
        ("3-path", k_path(3)),
        ("3-path→(x0,x3)", {
            let q = k_path(3);
            Cq {
                free: vs(&[0, 3]),
                ..q
            }
        }),
        ("snowflake(3)→(x0,x1)", {
            let q = snowflake(3);
            Cq {
                free: vs(&[0, 1]),
                ..q
            }
        }),
        ("triangle→(a)", {
            let q = triangle();
            Cq {
                free: vs(&[0]),
                ..q
            }
        }),
    ];
    let n = 1u64 << 6;
    for (name, q) in cases {
        let dc = uniform_dc(&q, n);
        let os = OutputSensitive::build(&q, &dc, 5_000).expect("ghd");
        let count_rc = os.count_circuit().expect("count circuit");
        let db = uniform_db(&q, (n - 4) as usize, 7);
        let out = os.count_ram(&db).expect("count");
        let query_rc = os.query_circuit(out.max(1)).expect("query circuit");
        // sanity: matches the RAM baseline
        let expect = evaluate_pairwise(&q, &db).expect("baseline");
        assert_eq!(out, expect.len() as u64, "{name}: count");
        let (worst, _) = naive_circuit(&q, &dc).expect("naive");
        t.row(vec![
            name.into(),
            q.free.to_string(),
            f(os.width.to_f64()),
            f(paper_cost(&count_rc).to_f64()),
            f(paper_cost(&query_rc).to_f64()),
            out.to_string(),
            f(paper_cost(&worst).to_f64()),
        ]);
    }
    t.verdict("count + query circuit costs stay near N + 2^width + OUT and far below the worst-case (naive) circuit when OUT is small".to_string());
    t
}

/// X10 — Sec. 7: join-aggregate queries over semirings.
pub fn x10_semiring() -> Table {
    let mut t = Table::new(
        "X10  Sec 7: join-aggregate (FAQ) circuits over semirings",
        &["query", "semiring", "circuit_cost", "verified"],
    );
    let n = 1u64 << 5;
    // triangles per vertex (Natural), triangle existence per vertex
    // (Boolean), cheapest 2-hop path (MinTropical)
    let tri = {
        let q = triangle();
        Cq {
            free: vs(&[0]),
            ..q
        }
    };
    let two_hop = qec_query::parse_cq("Q(a, c) :- R(a, b), S(b, c)").expect("parses");
    let cases: Vec<(&str, Cq, Semiring, Vec<Option<Var>>)> = vec![
        (
            "triangles/vertex",
            tri.clone(),
            Semiring::Natural,
            vec![None, None, None],
        ),
        (
            "in-triangle?",
            tri,
            Semiring::Boolean,
            vec![None, None, None],
        ),
        (
            "cheapest 2-hop",
            two_hop.clone(),
            Semiring::MinTropical,
            vec![Some(Var(40)), Some(Var(41))],
        ),
        (
            "heaviest 2-hop",
            two_hop,
            Semiring::MaxTropical,
            vec![Some(Var(40)), Some(Var(41))],
        ),
    ];
    for (name, q, sr, annots) in cases {
        let dc = uniform_dc(&q, n);
        let aq = AggregateQuery::new(&q, &dc, sr, annots.clone(), 4_000).expect("builds");
        // verification instance
        let mut db = uniform_db(&q, (n - 4) as usize, 13);
        for (atom, annot) in q.atoms.iter().zip(annots.iter()) {
            if let Some(a) = annot {
                let rel = db.get(&atom.name).expect("present").clone();
                let mut schema = rel.schema().to_vec();
                schema.push(*a);
                let rows = rel
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let mut t = r.clone();
                        t.push(1 + (i as u64 % 5));
                        t
                    })
                    .collect();
                db.insert(
                    atom.name.clone(),
                    qec_relation::Relation::from_rows(schema, rows),
                );
            }
        }
        let expect = aq.reference(&db).expect("reference");
        let rc = aq.circuit(expect.len().max(1) as u64).expect("circuit");
        let got = rc.evaluate_ram(&db).expect("evaluates");
        let ok = got[0] == expect;
        t.row(vec![
            name.into(),
            format!("{sr:?}"),
            f(paper_cost(&rc).to_f64()),
            ok.to_string(),
        ]);
    }
    t.verdict("all four semirings evaluate correctly through the same Yannakakis-C circuit shape (Thm 5 carries over, Sec. 7)".to_string());
    t
}

/// X11 — Sec. 1 (MPC): two-party secure join; AND gates/rounds are the
/// cost drivers.
pub fn x11_mpc() -> Table {
    let mut t = Table::new(
        "X11  Sec 1: GMW-style 2-party secure primary-key join",
        &[
            "M",
            "word_gates",
            "bool_gates",
            "AND_gates",
            "AND_depth",
            "garble_MB",
            "verified",
        ],
    );
    for m in [4usize, 8, 16] {
        let mut b = Builder::new();
        let r = encode_relation(&mut b, vec![Var(0), Var(1)], m);
        let s = encode_relation(&mut b, vec![Var(1), Var(2)], m);
        let j = join_pk(&mut b, &r, &s);
        let schema = j.schema.clone();
        let c = b.finish(j.flatten());
        let bc = lower_with(&c, 16, &CompileOptions::from_env());
        // verify the protocol against plaintext on one instance
        let rr = qec_relation::random_degree_bounded(Var(1), Var(0), m, 1, 3)
            .rename(Var(0), Var(3))
            .rename(Var(1), Var(0))
            .rename(Var(3), Var(1));
        let ss = qec_relation::random_degree_bounded(Var(1), Var(2), m, 1, 4);
        let mut inputs = qec_circuit::relation_to_values(&rr, m).expect("fits");
        inputs.extend(qec_circuit::relation_to_values(&ss, m).expect("fits"));
        let plain = c.evaluate(&inputs).expect("plaintext");
        let bits = bc.pack_inputs(&inputs);
        let eng = qec_circuit::CompiledBitCircuit::compile_gmw(&bc);
        let (mut shared, stats) = qec_mpc::run_two_party(&eng, &[bits], 64, 99).expect("protocol");
        let shared_words = bc.unpack_outputs(&shared.remove(0).expect("constraints hold"));
        let ok = shared_words == plain
            && qec_circuit::decode_relation(&schema, &shared_words) == rr.natural_join(&ss);
        let garble = qec_mpc::garbling_cost(&bc);
        t.row(vec![
            m.to_string(),
            c.size().to_string(),
            bc.gate_count().to_string(),
            stats.and_gates.to_string(),
            bc.and_depth().to_string(),
            format!("{:.1}", garble.table_bytes as f64 / 1e6),
            ok.to_string(),
        ]);
    }
    t.verdict("the secure join is exact; its communication (AND gates) scales with the Õ(M+N') circuit size rather than the naive M·N' — the paper's motivation for circuit-based MPC".to_string());
    t
}

/// X12 — Sec. 5.1: sorting-network and scan substrate scaling, with the
/// odd–even vs bitonic network ablation.
pub fn x12_primitive_scaling() -> Table {
    use qec_circuit::{sort_slots_network, SortNetwork};
    let mut t = Table::new(
        "X12  Sec 5.1: sorting networks Θ(K log²K) (odd-even vs bitonic) and scan Θ(K log K)",
        &[
            "K",
            "oddeven_size",
            "bitonic_size",
            "saving",
            "sort_depth",
            "scan_size",
            "scan_depth",
        ],
    );
    // Powers of two, and three capacities between them (3·2^j), where
    // odd-even drops the comparators on its padding lanes and bitonic
    // keeps them.
    for k in [16usize, 24, 64, 256, 1024, 1536, 4096, 12288, 16384] {
        let sort_metrics = |network: SortNetwork| -> (u64, u32) {
            let mut b = Builder::new();
            let w = encode_relation(&mut b, vec![Var(0)], k);
            let (s, _) =
                sort_slots_network(&mut b, &w, &SortKey::Columns(vec![Var(0)]), &[], network);
            let c = b.finish(s.flatten());
            (c.size(), c.depth())
        };
        let (oe, oed) = sort_metrics(SortNetwork::OddEvenMerge);
        let (bi, _) = sort_metrics(SortNetwork::Bitonic);
        let mut b = Builder::new();
        let xs: Vec<Vec<WireId>> = (0..k).map(|_| vec![b.input()]).collect();
        let out = scan(&mut b, &xs, &mut |b, a, x| vec![b.add(a[0], x[0])]);
        let c = b.finish(out.into_iter().map(|v| v[0]).collect());
        t.row(vec![
            k.to_string(),
            oe.to_string(),
            bi.to_string(),
            format!("{:.0}%", 100.0 * (1.0 - oe as f64 / bi as f64)),
            oed.to_string(),
            c.size().to_string(),
            c.depth().to_string(),
        ]);
    }
    t.verdict("both networks are Θ(K log²K) size / Θ(log²K) depth; odd-even merge (the default) saves 15-23% of the gates at powers of two and 19-32% between them, where it also drops the comparators on its padding lanes that bitonic keeps — the ablation behind DESIGN.md's sorting-network substitution".to_string());
    t
}

/// X13 — Brent's theorem: levelized PRAM schedules of the PANDA-C
/// triangle circuit achieve `O(W/P + D)` steps, and the compiled engine,
/// whose tape is ordered by the same levels, reproduces the interpreter.
pub fn x13_brent() -> Table {
    use qec_circuit::CompiledCircuit;
    let mut t = Table::new(
        "X13  Brent: PRAM steps of the PANDA-C triangle circuit",
        &["P", "steps", "W/P + D", "ok"],
    );
    let q = triangle();
    let dc = uniform_dc(&q, 32);
    let p = compile_fcq(&q, &dc).expect("compiles");
    let lowered = p.rc.lower();
    let c = &lowered.circuit;
    let (w, d) = (c.size(), u64::from(c.depth()));
    let db = uniform_db(&q, 28, 3);
    let inputs = lowered.layout.values(&db).expect("conforms");
    // Compile once; the engine's tape is level-major over the same
    // levels `brent_steps` counts.
    let engine =
        CompiledCircuit::compile_with(c, &CompileOptions::from_env()).expect("circuit compiles");
    let mut all_ok = engine.evaluate(&inputs) == c.evaluate(&inputs);
    for procs in [1u64, 2, 4, 8, 64, 1024, 1 << 20] {
        let steps = brent_steps(c, procs);
        let bound = w / procs + d;
        let ok = steps <= bound;
        all_ok &= ok;
        t.row(vec![
            procs.to_string(),
            steps.to_string(),
            bound.to_string(),
            ok.to_string(),
        ]);
    }
    let regs = engine.stats().peak_registers;
    t.verdict(if all_ok {
        format!(
            "W = {w}, D = {d}: every schedule meets Brent's W/P + D bound, and the compiled engine reproduces the interpreter with a {regs}-register working set (vs {} wires)",
            c.num_wires()
        )
    } else {
        "Brent bound violated or engine/interpreter mismatch (bug)".to_string()
    });
    t
}

/// X15 — the compiled evaluation engine: one tape pass over a batch of
/// database instances beats per-instance interpretation ≥ 4× on a
/// ≥ 10⁵-gate join circuit, with a register working set orders of
/// magnitude below the circuit size.
pub fn x15_engine_throughput() -> Table {
    use qec_circuit::CompiledCircuit;
    let mut t = Table::new(
        "X15  Engine: batched, register-allocated evaluation of a degree-bounded join",
        &["evaluator", "batch", "us_per_inst", "Mgev_per_s", "speedup"],
    );
    const CAP: usize = 16;
    const BATCH: usize = 64;
    // R(a,b) ⋈ S(b,c) with degree bound 4 — ~2·10⁵ word gates.
    let mut b = Builder::new();
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], CAP);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], CAP);
    let j = join_degree_bounded(&mut b, &r, &s, 4);
    let c = b.finish(j.flatten());
    let engine =
        CompiledCircuit::compile_with(&c, &CompileOptions::from_env()).expect("circuit compiles");
    let stats = engine.stats().clone();

    let instances: Vec<Vec<u64>> = (0..BATCH)
        .map(|lane| {
            let mut inp = Vec::with_capacity(c.num_inputs());
            for rel in 0..2 {
                for slot in 0..CAP {
                    let key = (slot as u64 + lane as u64) % 7;
                    inp.extend_from_slice(&if rel == 0 {
                        [slot as u64, key, 1]
                    } else {
                        [key, slot as u64, 1]
                    });
                }
            }
            inp
        })
        .collect();

    // One warm-up pass per evaluator (doubling as the correctness
    // cross-check), then interleaved timing rounds with a per-evaluator
    // median: the passes being compared run back to back in each round,
    // so slow drift in the host's effective clock speed cancels out of
    // the speedup ratio instead of landing on whichever evaluator was
    // measured later.
    type Pass<'a> = Box<dyn FnMut() -> Vec<Result<Vec<u64>, qec_circuit::EvalError>> + 'a>;
    let eng = &engine;
    let insts = &instances;
    let reference: Vec<_> = insts.iter().map(|i| c.evaluate(i)).collect();
    let mut evals: Vec<Pass<'_>> = vec![Box::new(|| insts.iter().map(|i| c.evaluate(i)).collect())];
    const CHUNKS: [usize; 2] = [1, BATCH];
    for chunk in CHUNKS {
        evals.push(Box::new(move || {
            insts
                .chunks(chunk)
                .flat_map(|g| eng.evaluate_batch(g))
                .collect()
        }));
    }
    let mut correct = true;
    for pass in evals.iter_mut() {
        correct &= pass() == reference;
    }
    const ROUNDS: usize = 5;
    let mut times = vec![Vec::with_capacity(ROUNDS); evals.len()];
    for _ in 0..ROUNDS {
        for (i, pass) in evals.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            let _ = pass();
            times[i].push(t0.elapsed().as_nanos() as f64);
        }
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let interp_ns = median(&mut times[0]);
    let gev = |total_ns: f64| stats.tape_len as f64 * BATCH as f64 / (total_ns / 1e9) / 1e6;
    t.row(vec![
        "interpreter".into(),
        "1".into(),
        f(interp_ns / 1e3 / BATCH as f64),
        f(gev(interp_ns)),
        f(1.0),
    ]);

    let mut batch64_speedup = 0.0;
    for (i, chunk) in CHUNKS.into_iter().enumerate() {
        let ns = median(&mut times[i + 1]);
        let speedup = interp_ns / ns;
        if chunk == BATCH {
            batch64_speedup = speedup;
        }
        t.row(vec![
            "engine".into(),
            chunk.to_string(),
            f(ns / 1e3 / BATCH as f64),
            f(gev(ns)),
            f(speedup),
        ]);
    }

    let kinds = stats
        .gate_count_pairs()
        .iter()
        .map(|(k, n)| format!("{k} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    t.verdict(format!(
        "{} gates in {} levels (widest {}), peak {} registers ({}x below the wire count) — batch-{BATCH} engine {}x over the interpreter ({}, correct: {correct}); gates: {kinds}",
        stats.circuit_size,
        stats.num_levels,
        stats.max_level_width(),
        stats.peak_registers,
        stats.circuit_wires / stats.peak_registers.max(1),
        f(batch64_speedup),
        if batch64_speedup >= 4.0 { "meets the ≥4x target" } else { "BELOW the 4x target" },
    ));
    t
}

/// X16 — the optimizer pipeline (the builder's rewrite rules and
/// hash-consing, then the optimizer's liveness mark) against the
/// oracle build (`Builder::without_cse`: no rule, no hash-cons): on the
/// X15 join circuit it must remove ≥ 25% of the word gates and buy ≥ 15%
/// batched-engine throughput; the X1 triangle circuit and the bit-level
/// lowering shrink alongside.
pub fn x16_optimizer() -> Table {
    use qec_circuit::{optimize_bits_with, Circuit, CompiledCircuit};
    use qec_obs::Recorder;
    let mut t = Table::new(
        "X16  Optimizer: rewrite rules, hash-consing, and DCE across the word/bit IRs",
        &[
            "circuit",
            "stage",
            "word_gates",
            "depth",
            "bit_ANDs",
            "AND_depth",
            "ms",
            "us_per_inst",
        ],
    );
    const CAP: usize = 16;
    const BATCH: usize = 64;
    const BIT_WIDTH: u32 = 16;
    let opts = CompileOptions::from_env();
    // A raw row lowers every gate to bits; an optimized row lowers the
    // live gates only and also runs the bit optimizer.
    let lower_bits = |c: &Circuit, optimized: bool| {
        if optimized {
            optimize_bits_with(&lower_with(c, BIT_WIDTH, &opts), &opts).0
        } else {
            lower_with(c, BIT_WIDTH, &opts.clone().with_optimize(false))
        }
    };

    // --- X1 triangle circuit (heavy/light, N = 16). N = 16 keeps the
    // bit-level lowering (~10M bit gates at width 16) inside a few
    // seconds; the word-level ratios are stable across N. ---
    let (rc, _) = triangle_heavy_light(16);
    let t0 = std::time::Instant::now();
    let tri_raw = rc.lower_without_cse().circuit;
    let tri_raw_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let tri = rc.lower().circuit;
    let tri_eng = CompiledCircuit::compile_with(&tri, &opts).expect("circuit compiles");
    let tri_opt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tri_st = tri_eng.stats();
    for (stage, c, size, depth, ms) in [
        ("raw", &tri_raw, tri_raw.size(), tri_raw.depth(), tri_raw_ms),
        (
            "optimized",
            &tri,
            tri_st.optimized_size,
            tri_st.optimized_depth,
            tri_opt_ms,
        ),
    ] {
        let bits = lower_bits(c, stage == "optimized");
        t.row(vec![
            "triangle N=16".into(),
            stage.into(),
            size.to_string(),
            depth.to_string(),
            bits.and_count().to_string(),
            bits.and_depth().to_string(),
            f(ms),
            "-".into(),
        ]);
    }
    drop((tri_raw, tri, tri_eng));

    // --- X15 join circuit: the oracle build compiled as it stands,
    // against the rewriting build compiled through the mark. The
    // rewriting build flushes its rule and hash-cons counters to a
    // recorder of its own. ---
    let build_join = |mut b: Builder| {
        let r = encode_relation(&mut b, vec![Var(0), Var(1)], CAP);
        let s = encode_relation(&mut b, vec![Var(1), Var(2)], CAP);
        let j = join_degree_bounded(&mut b, &r, &s, 4);
        b.finish(j.flatten())
    };
    let t0 = std::time::Instant::now();
    let raw = build_join(Builder::without_cse());
    let eng_raw = CompiledCircuit::compile_with(&raw, &opts.clone().with_optimize(false))
        .expect("circuit compiles");
    let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
    let build_rec = Recorder::new(true);
    let saved = qec_obs::install(build_rec.clone());
    let t0 = std::time::Instant::now();
    let ruled = build_join(Builder::new());
    let eng_opt = CompiledCircuit::compile_with(&ruled, &opts).expect("circuit compiles");
    let opt_ms = t0.elapsed().as_secs_f64() * 1e3;
    qec_obs::install(saved);
    let st = eng_opt
        .stats()
        .opt
        .clone()
        .expect("compile runs the optimizer");
    let raw_bits = lower_bits(&raw, false);
    let opt_bits = lower_bits(&ruled, true);
    let (opt_size, opt_depth) = (
        eng_opt.stats().optimized_size,
        eng_opt.stats().optimized_depth,
    );

    let instances: Vec<Vec<u64>> = (0..BATCH)
        .map(|lane| {
            let mut inp = Vec::with_capacity(raw.num_inputs());
            for rel in 0..2 {
                for slot in 0..CAP {
                    let key = (slot as u64 + lane as u64) % 7;
                    inp.extend_from_slice(&if rel == 0 {
                        [slot as u64, key, 1]
                    } else {
                        [key, slot as u64, 1]
                    });
                }
            }
            inp
        })
        .collect();
    // Warm-up doubles as the correctness cross-check, then interleaved
    // rounds with a per-engine median (same protocol as X15) so clock
    // drift cancels out of the throughput ratio.
    let correct = eng_raw.evaluate_batch(&instances) == eng_opt.evaluate_batch(&instances);
    const ROUNDS: usize = 5;
    let mut raw_ns = Vec::with_capacity(ROUNDS);
    let mut opt_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = std::time::Instant::now();
        let _ = eng_raw.evaluate_batch(&instances);
        raw_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = std::time::Instant::now();
        let _ = eng_opt.evaluate_batch(&instances);
        opt_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let raw_med = median(&mut raw_ns);
    let opt_med = median(&mut opt_ns);

    t.row(vec![
        "join cap=16".into(),
        "raw".into(),
        raw.size().to_string(),
        raw.depth().to_string(),
        raw_bits.and_count().to_string(),
        raw_bits.and_depth().to_string(),
        f(raw_ms),
        f(raw_med / 1e3 / BATCH as f64),
    ]);
    t.row(vec![
        "join cap=16".into(),
        "optimized".into(),
        opt_size.to_string(),
        opt_depth.to_string(),
        opt_bits.and_count().to_string(),
        opt_bits.and_depth().to_string(),
        f(opt_ms),
        f(opt_med / 1e3 / BATCH as f64),
    ]);

    let gate_cut = 100.0 * (1.0 - opt_size as f64 / raw.size() as f64);
    let and_cut = 100.0 * (1.0 - opt_bits.and_count() as f64 / raw_bits.and_count() as f64);
    let gain = 100.0 * (raw_med / opt_med - 1.0);
    t.verdict(format!(
        "join: {gate_cut:.1}% word gates and {and_cut:.1}% bit ANDs removed (fold {}, identity {}, cse {}, dead {}) in {:.0} ms build+compile; batch-{BATCH} engine +{gain:.1}% throughput (correct: {correct}) — {}",
        build_rec.counter("build.folded"),
        build_rec.counter("build.identities"),
        build_rec.counter("build.cons_hits"),
        st.dead,
        opt_ms,
        if gate_cut >= 25.0 && gain >= 15.0 {
            "meets the ≥25% gate / ≥15% throughput targets"
        } else {
            "BELOW the ≥25% gate / ≥15% throughput targets"
        },
    ));
    t
}

/// X14 — bound tightness (Sec. 3.2): on AGM worst-case instances the
/// measured output reaches the polymatroid bound (up to the integrality
/// of the grid side), certifying that the circuits are not oversized.
pub fn x14_bound_tightness() -> Table {
    use qec_query::baseline::evaluate_pairwise;
    use qec_relation::{
        agm_worst_case_even_cycle, agm_worst_case_loomis_whitney, agm_worst_case_triangle, Database,
    };
    let mut t = Table::new(
        "X14  Sec 3.2: worst-case instances saturate the polymatroid bound",
        &["query", "N", "DAPB", "|Q(D)|", "fill", "circuit agrees"],
    );
    let mut cases: Vec<(&str, Cq, Database, u64)> = Vec::new();
    for e in [4u32, 6, 8] {
        let n = 1usize << e;
        let q = triangle();
        let (r, s, tt) = agm_worst_case_triangle(Var(0), Var(1), Var(2), n);
        let mut db = Database::new();
        db.insert("R", r);
        db.insert("S", s);
        db.insert("T", tt);
        cases.push(("triangle", q, db, n as u64));
    }
    {
        let n = 64usize;
        let q = k_cycle(4);
        let rels = agm_worst_case_even_cycle(4, n);
        let mut db = Database::new();
        for (a, rel) in q.atoms.iter().zip(rels) {
            db.insert(a.name.clone(), rel);
        }
        cases.push(("4-cycle", q, db, n as u64));
    }
    {
        let n = 64usize;
        let q = loomis_whitney(3);
        let rels = agm_worst_case_loomis_whitney(3, n);
        let mut db = Database::new();
        for (a, rel) in q.atoms.iter().zip(rels) {
            db.insert(a.name.clone(), rel);
        }
        cases.push(("LW(3)", q, db, n as u64));
    }
    for (name, q, db, n) in cases {
        let dc = uniform_dc(&q, n);
        let p = compile_fcq(&q, &dc).expect("compiles");
        let out = evaluate_pairwise(&q, &db).expect("baseline");
        let circuit_out = p.rc.evaluate_ram(&db).expect("conforms");
        let dapb = 2f64.powf(p.bound.log_value.to_f64());
        t.row(vec![
            name.into(),
            n.to_string(),
            f(dapb),
            out.len().to_string(),
            format!("{:.0}%", 100.0 * out.len() as f64 / dapb),
            (circuit_out[0] == out).to_string(),
        ]);
    }
    t.verdict("worst-case grids fill the bound up to grid-side integrality (⌊√N⌋ effects) — the circuits' DAPB sizing is not slack, matching the tightness discussion of Sec. 3.2".to_string());
    t
}

/// X18 — observability overhead: the traced-vs-untraced sweep behind
/// the `qec-obs` acceptance gates. Interleaved rounds measure (a) the
/// batch-64 engine throughput on the X15 join circuit and (b) the full
/// relational compile pipeline (rc build → word optimize → tape → bit
/// lower) on the PANDA-C triangle, once with all recorders disabled and
/// once with an enabled recorder installed globally. The traced rounds
/// additionally report what fraction of the end-to-end compile wall
/// time the exported `build`/`optimize`/`tape`/`lower` spans account
/// for. Targets: < 2% eval overhead, ≥ 95% span coverage.
/// `QEC_X18_ROUNDS=<n>` overrides the 5 interleaved rounds (CI smoke
/// uses 1).
pub fn x18_obs_overhead() -> Table {
    use qec_circuit::CompiledCircuit;
    use qec_obs::Recorder;
    let mut t = Table::new(
        "X18  Observability: traced-vs-untraced overhead and span coverage",
        &[
            "measurement",
            "untraced",
            "traced",
            "overhead_pct",
            "coverage_pct",
        ],
    );

    // The X15 join circuit and batch, for the eval-throughput half.
    const CAP: usize = 16;
    const BATCH: usize = 64;
    let mut b = Builder::new();
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], CAP);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], CAP);
    let j = join_degree_bounded(&mut b, &r, &s, 4);
    let c = b.finish(j.flatten());
    let engine =
        CompiledCircuit::compile_with(&c, &CompileOptions::from_env()).expect("circuit compiles");
    let instances: Vec<Vec<u64>> = (0..BATCH)
        .map(|lane| {
            let mut inp = Vec::with_capacity(c.num_inputs());
            for rel in 0..2 {
                for slot in 0..CAP {
                    let key = (slot as u64 + lane as u64) % 7;
                    inp.extend_from_slice(&if rel == 0 {
                        [slot as u64, key, 1]
                    } else {
                        [key, slot as u64, 1]
                    });
                }
            }
            inp
        })
        .collect();

    // The PANDA-C triangle relational pipeline, for the compile half
    // (N = 16 like X16's triangle column: large enough for stable span
    // timings, small enough that ten full rounds — each rebuilding the
    // word circuit, optimizing, taping, and bit-lowering — stay in CI
    // smoke territory).
    let q = triangle();
    let dc = uniform_dc(&q, 16);
    let p = compile_fcq(&q, &dc).expect("compiles");

    let rounds: usize = std::env::var("QEC_X18_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(5);
    let mut eval_ns = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut compile_ns = [Vec::new(), Vec::new()];
    let mut coverages = Vec::with_capacity(rounds);
    // Warm-up: one untimed pass of each half.
    let _ = engine.evaluate_batch(&instances);
    let _ = p.rc.lower_with(Mode::Build, &CompileOptions::from_env());
    let saved = qec_obs::install(Recorder::disabled());
    for _ in 0..rounds {
        for traced in [false, true] {
            // A fresh recorder per traced round keeps span totals
            // per-round; installing it globally routes the builder
            // counters to the same sink the driver stages use.
            let rec = if traced {
                Recorder::new(true)
            } else {
                Recorder::disabled()
            };
            qec_obs::install(rec.clone());
            let opts = CompileOptions::from_env().with_recorder(rec.clone());

            let t0 = std::time::Instant::now();
            let out = engine.evaluate_batch(&instances);
            eval_ns[usize::from(traced)].push(t0.elapsed().as_nanos() as f64);
            assert!(out.iter().all(|r| r.is_ok()), "join instances are valid");

            let t0 = std::time::Instant::now();
            let lowered = p.rc.lower_with(Mode::Build, &opts);
            let eng2 =
                CompiledCircuit::compile_with(&lowered.circuit, &opts).expect("circuit compiles");
            let bits = lower_with(&lowered.circuit, 16, &opts);
            let wall = t0.elapsed().as_nanos() as f64;
            std::hint::black_box((eng2.stats().tape_len, bits.gate_count()));
            compile_ns[usize::from(traced)].push(wall);
            if traced {
                let covered: u64 = ["build", "optimize", "tape", "lower"]
                    .iter()
                    .map(|name| rec.span_total_ns(name))
                    .sum();
                coverages.push(covered as f64 / wall);
            }
        }
    }
    qec_obs::install(saved);

    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (eu, et) = (median(&mut eval_ns[0]), median(&mut eval_ns[1]));
    let (cu, ct) = (median(&mut compile_ns[0]), median(&mut compile_ns[1]));
    let coverage = median(&mut coverages);
    let eval_overhead = (et - eu) / eu * 100.0;
    let compile_overhead = (ct - cu) / cu * 100.0;
    t.row(vec![
        "eval us/inst (x15 join, batch 64)".into(),
        f(eu / 1e3 / BATCH as f64),
        f(et / 1e3 / BATCH as f64),
        f(eval_overhead),
        "-".into(),
    ]);
    t.row(vec![
        "compile ms (triangle rc pipeline)".into(),
        f(cu / 1e6),
        f(ct / 1e6),
        f(compile_overhead),
        f(coverage * 100.0),
    ]);
    t.verdict(format!(
        "tracing costs {eval_overhead:.2}% on batch-{BATCH} eval ({}) and {compile_overhead:.2}% on compile; the exported build/optimize/tape/lower spans cover {:.1}% of compile wall time ({})",
        if eval_overhead < 2.0 {
            "meets the <2% target"
        } else {
            "ABOVE the 2% target"
        },
        coverage * 100.0,
        if coverage >= 0.95 {
            "meets the ≥95% target"
        } else {
            "BELOW the 95% target"
        },
    ));
    t
}

/// All experiments in order.
#[allow(clippy::type_complexity)]
pub fn all_experiments() -> Vec<(&'static str, fn() -> Table)> {
    vec![
        ("x1", x1_heavy_light as fn() -> Table),
        ("x2", x2_panda_triangle),
        ("x3", x3_proof_sequences),
        ("x4", x4_panda_cost),
        ("x5", x5_project_aggregate),
        ("x6", x6_pk_join),
        ("x7", x7_degree_join),
        ("x8", x8_output_join),
        ("x9", x9_output_sensitive),
        ("x10", x10_semiring),
        ("x11", x11_mpc),
        ("x12", x12_primitive_scaling),
        ("x13", x13_brent),
        ("x14", x14_bound_tightness),
        ("x15", x15_engine_throughput),
        ("x16", x16_optimizer),
        ("x18", x18_obs_overhead),
        ("x19", x19_differential),
        ("x20", x20_tape_persistence),
        ("x21", x21_bitengine),
        ("x22", x22_serve),
        ("x23", x23_networked_gmw),
        ("x24", x24_datalog_fixpoint),
    ]
}

/// X19 — Differential fuzzing throughput: seeded random conjunctive
/// queries with random instances, each compiled through the full
/// engine-option matrix (optimizer on/off × tracing on/off)
/// and checked against the RAM baselines. Reports cases/sec and the divergence count —
/// which must be zero for the reproduction's equivalence claim to
/// stand.
pub fn x19_differential() -> Table {
    use std::time::Instant;
    let mut t = Table::new(
        "X19  Differential fuzzing: circuit pipeline vs RAM baselines across the option matrix",
        &[
            "seed",
            "cases",
            "configs",
            "word_gates",
            "cases_per_s",
            "divergences",
        ],
    );
    let cases: usize = std::env::var("QEC_X19_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let mut divergences = 0usize;
    let mut first_failure = String::new();
    let mut total_rate = 0.0;
    for seed in [0xA11CEu64, 0xB0B5, 0x5EED5] {
        let start = Instant::now();
        // datalog_every = 0: X19 times the CQ pipeline; the Datalog
        // stage has its own experiment (X24) and fuzz cadence.
        let summary = qec_check::fuzz_many(seed, cases, 16, 0);
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        let failed = usize::from(summary.failure.is_some());
        divergences += failed;
        if let Some((case, d)) = &summary.failure {
            if first_failure.is_empty() {
                first_failure = format!("seed {}: {d}", case.seed);
            }
        }
        let rate = summary.cases_passed as f64 / dt;
        total_rate += rate;
        t.row(vec![
            format!("{seed:#x}"),
            summary.cases_passed.to_string(),
            summary.configs.to_string(),
            summary.word_gates.to_string(),
            f(rate),
            failed.to_string(),
        ]);
    }
    t.verdict(if divergences == 0 {
        format!(
            "0 divergences across {} cases at {} cases/s mean; circuit outputs match the RAM baselines on every sampled configuration",
            cases * 3,
            f(total_rate / 3.0),
        )
    } else {
        format!("{divergences} DIVERGENT sweep(s); first: {first_failure}")
    });
    t
}

/// Finds the `tape_eval` sibling binary (X20's child process). `report`
/// and `tape_eval` are both bin targets of this crate, so from the
/// `report` binary it is a sibling; from a test binary it is one
/// directory up (out of `deps/`).
fn tape_eval_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join("tape_eval"), dir.join("../tape_eval")]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

/// X20 — Flat instruction tapes: a generated conjunctive-query circuit
/// is (a) bit-lowered with [`lower_with`]; (b) tape-encoded at both
/// levels, serialized, reloaded, and decoded with round-trip identity
/// and save+load throughput measured; and (c) evaluated by a separate
/// `tape_eval` child process from the serialized bytes alone, with
/// outputs matched against the in-process evaluation — the
/// compile-once / load-and-evaluate-many contract across a real
/// process boundary.
///
/// Sizing knobs: `QEC_X20_SMOKE=1` shrinks the case for CI;
/// `QEC_X20_N1280=1` adds the word lowering at N=1280 — one
/// step beyond the N=1024 the X1 sweep reaches — with the process peak
/// RSS (`VmHWM`) recorded.
pub fn x20_tape_persistence() -> Table {
    use qec_circuit::{BitTape, WordTape};
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    use std::time::Instant;

    let mut t = Table::new(
        "X20  Flat instruction tapes: bit lowering, serialization, cross-process reload",
        &["stage", "N", "gates", "seconds", "detail", "check"],
    );
    let smoke = std::env::var("QEC_X20_SMOKE").is_ok_and(|v| v == "1");
    let heavy = !smoke && std::env::var("QEC_X20_N1280").is_ok_and(|v| v == "1");

    // A generated conjunctive-query case supplies both the word circuit
    // and *valid* inputs for it (assertion gates are live on the tape),
    // so evaluation parity below is meaningful end to end.
    let case = qec_check::gen_case(if smoke { 7 } else { 23 });
    let (cq, db, dc) = case.materialize().expect("generated case materializes");
    let (rc, _) = naive_circuit(&cq, &dc).expect("naive circuit builds");
    let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
    let word_circuit = &lowered.circuit;
    let word_inputs = lowered.layout.values(&db).expect("layout inputs");
    let n_label = case.seed.to_string();

    // --- Bit lowering, traced into the run's recorder so the artifact
    // carries its `lower` span and gate counters. ---
    let t0 = Instant::now();
    let bits = lower_with(
        word_circuit,
        64,
        &CompileOptions::sequential().with_recorder(qec_obs::global()),
    );
    let lower_secs = t0.elapsed().as_secs_f64();
    t.row(vec![
        "lower".into(),
        n_label.clone(),
        bits.gates().len().to_string(),
        format!("{lower_secs:.3}"),
        format!("{} ANDs", bits.and_count()),
        "-".into(),
    ]);

    // --- Serialization round-trips with save+load throughput. ---
    let word_tape = WordTape::encode(word_circuit);
    let t0 = Instant::now();
    let word_bytes = word_tape.to_bytes();
    let word_back = WordTape::from_bytes(&word_bytes).expect("word tape reloads");
    let word_secs = t0.elapsed().as_secs_f64();
    assert_eq!(word_back, word_tape, "word tape round-trip changed bytes");
    t.row(vec![
        "tape save+load (word)".into(),
        n_label.clone(),
        word_tape.num_instructions().to_string(),
        format!("{word_secs:.4}"),
        format!(
            "{} KiB at {} MB/s",
            word_bytes.len() / 1024,
            f(word_bytes.len() as f64 / 5e5 / word_secs.max(1e-9))
        ),
        "round-trip identical".into(),
    ]);

    let bit_tape = BitTape::encode(&bits);
    let t0 = Instant::now();
    let bit_bytes = bit_tape.to_bytes();
    let bit_back = BitTape::from_bytes(&bit_bytes).expect("bit tape reloads");
    let bit_secs = t0.elapsed().as_secs_f64();
    assert_eq!(bit_back, bit_tape, "bit tape round-trip changed bytes");
    t.row(vec![
        "tape save+load (bit)".into(),
        n_label.clone(),
        bit_tape.num_instructions().to_string(),
        format!("{bit_secs:.4}"),
        format!(
            "{} KiB at {} MB/s",
            bit_bytes.len() / 1024,
            f(bit_bytes.len() as f64 / 5e5 / bit_secs.max(1e-9))
        ),
        "round-trip identical".into(),
    ]);

    // --- Cross-process reload: a separate `tape_eval` process gets only
    // the serialized bytes and the inputs, and must reproduce the
    // in-process evaluation exactly. ---
    let mut child_checks = 0u32;
    match tape_eval_binary() {
        Some(bin) => {
            let dir = std::env::temp_dir();
            let pid = std::process::id();
            for (kind, tape_bytes, input_line, expect) in [
                (
                    "word",
                    &word_bytes,
                    word_inputs
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(" "),
                    word_circuit
                        .evaluate(&word_inputs)
                        .expect("in-process word evaluation")
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                (
                    "bit",
                    &bit_bytes,
                    bits.pack_inputs(&word_inputs)
                        .iter()
                        .map(|&b| (if b { "1" } else { "0" }).to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                    bits.evaluate(&bits.pack_inputs(&word_inputs))
                        .expect("in-process bit evaluation")
                        .iter()
                        .map(|&b| (if b { "1" } else { "0" }).to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
            ] {
                let path = dir.join(format!("qec-x20-{pid}-{kind}.tape"));
                std::fs::write(&path, tape_bytes).expect("tape file writes");
                let t0 = Instant::now();
                let mut child = Command::new(&bin)
                    .arg(kind)
                    .arg(&path)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("tape_eval spawns");
                child
                    .stdin
                    .take()
                    .expect("child stdin")
                    .write_all(input_line.as_bytes())
                    .expect("child accepts inputs");
                let out = child.wait_with_output().expect("tape_eval exits");
                let secs = t0.elapsed().as_secs_f64();
                let _ = std::fs::remove_file(&path);
                assert!(out.status.success(), "tape_eval {kind} failed");
                let got = String::from_utf8_lossy(&out.stdout).trim().to_string();
                assert_eq!(got, expect, "child {kind} evaluation diverged");
                child_checks += 1;
                t.row(vec![
                    format!("child evaluate ({kind})"),
                    n_label.clone(),
                    expect.split_whitespace().count().to_string(),
                    format!("{secs:.3}"),
                    "separate process, bytes only".into(),
                    "outputs match in-process".into(),
                ]);
            }
        }
        None => {
            t.row(vec![
                "child evaluate".into(),
                n_label.clone(),
                "-".into(),
                "-".into(),
                "tape_eval binary not built".into(),
                "SKIPPED (cargo build -p qec-bench --release first)".into(),
            ]);
        }
    }

    // --- Word lowering at N=1280, with the process high-water RSS
    // recorded. ---
    if heavy {
        let (rc_big, _) = triangle_heavy_light(1280);
        let t0 = Instant::now();
        let big = rc_big.lower_with(Mode::Build, &CompileOptions::sequential());
        let secs = t0.elapsed().as_secs_f64();
        let rss = qec_obs::peak_rss_bytes()
            .map(|b| format!("peak RSS {:.1} GiB (VmHWM)", b as f64 / (1u64 << 30) as f64))
            .unwrap_or_else(|| "peak RSS unavailable".into());
        t.row(vec![
            "lower(word)".into(),
            "1280".into(),
            big.circuit.size().to_string(),
            format!("{secs:.2}"),
            rss,
            "first measurement at this size".into(),
        ]);
    }

    t.verdict(format!(
        "both tape kinds round-trip losslessly and {} child-process evaluation(s) matched in-process outputs{}",
        child_checks,
        if heavy {
            "; N=1280 word lowering completed (see row)"
        } else {
            " — set QEC_X20_N1280=1 for the N=1280 column"
        },
    ));
    t
}

/// X21 — the bitsliced BitEngine: transposed batch evaluation of the
/// X15 join circuit's lowered bit circuit at 64–512 instances per
/// scalar op, versus the per-instance interpreter; then the GMW session
/// protocol on a secure triangle evaluation, where the dealer hands out
/// one packed triple (64–256 scalar triples) per AND step, at batch 1
/// (the baseline) and at batches that fill the packed lanes.
///
/// Sizing knob: `QEC_X21_SMOKE=1` shrinks both circuits for CI.
pub fn x21_bitengine() -> Table {
    use qec_circuit::{BitEvalScratch, BitKernel, CompiledBitCircuit, EvalError};
    let smoke = std::env::var("QEC_X21_SMOKE").is_ok_and(|v| v == "1");
    let mut t = Table::new(
        "X21  BitEngine: bitsliced transposed bit-circuit evaluation + batched-triple GMW",
        &[
            "mode",
            "kernel",
            "batch",
            "us_per_inst",
            "Mgev_per_s",
            "speedup",
        ],
    );

    // --- Part 1: gate-evals/s on the X15 join circuit, lowered to bits.
    // R(a,b) ⋈ S(b,c) with degree bound 4, width-16 lowering. ---
    let cap = if smoke { 8 } else { 16 };
    let mut b = Builder::new();
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], cap);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], cap);
    let j = join_degree_bounded(&mut b, &r, &s, 4);
    let c = b.finish(j.flatten());
    let bits = lower_with(&c, 16, &CompileOptions::from_env());
    let eng = CompiledBitCircuit::compile_gmw(&bits);
    let gates = eng.stats().tape_len as f64;

    const MAX_BATCH: usize = 512;
    const INTERP_BATCH: usize = 64;
    let instances: Vec<Vec<bool>> = (0..MAX_BATCH)
        .map(|lane| {
            let mut inp = Vec::with_capacity(c.num_inputs());
            for rel in 0..2 {
                for slot in 0..cap {
                    let key = (slot as u64 + lane as u64) % 7;
                    inp.extend_from_slice(&if rel == 0 {
                        [slot as u64, key, 1]
                    } else {
                        [key, slot as u64, 1]
                    });
                }
            }
            bits.pack_inputs(&inp)
        })
        .collect();

    // Reference once (doubling as the warm-up), then interleaved timing
    // rounds with a per-evaluator median, exactly like X15: the passes
    // being compared run back to back in each round so clock drift
    // cancels out of the speedup ratios.
    let mut iscratch = BitEvalScratch::default();
    let reference: Vec<Result<Vec<bool>, EvalError>> = instances
        .iter()
        .map(|i| bits.evaluate_with(i, &mut iscratch).map(<[bool]>::to_vec))
        .collect();

    type Pass<'a> = Box<dyn FnMut() -> Vec<Result<Vec<bool>, EvalError>> + 'a>;
    let insts = &instances;
    let bits_ref = &bits;
    // One engine per kernel: the kernel is a property of the engine.
    let kernel_engs: Vec<(BitKernel, CompiledBitCircuit)> = BitKernel::available()
        .into_iter()
        .map(|k| (k, eng.clone().with_kernel(k)))
        .collect();
    let mut evals: Vec<(&str, &str, usize, Pass<'_>)> = vec![(
        "bit-interp",
        "-",
        INTERP_BATCH,
        Box::new(move || {
            let mut sc = BitEvalScratch::default();
            insts[..INTERP_BATCH]
                .iter()
                .map(|i| bits_ref.evaluate_with(i, &mut sc).map(<[bool]>::to_vec))
                .collect()
        }),
    )];
    for (kernel, keng) in &kernel_engs {
        // Scalar runs at batches 1, 64 and 256; wide kernels run at their
        // full lane count so no lanes idle — AVX-512 at batch 256 would
        // waste half its 512 lanes.
        let batches = if *kernel == BitKernel::Scalar {
            vec![1usize, 64, 256]
        } else {
            vec![kernel.lanes().min(MAX_BATCH)]
        };
        for batch in batches {
            evals.push((
                "bitengine",
                kernel.name(),
                batch,
                Box::new(move || keng.evaluate_batch(&insts[..batch])),
            ));
        }
    }

    let mut correct = true;
    for (_, _, batch, pass) in evals.iter_mut() {
        correct &= pass() == reference[..*batch];
    }
    const ROUNDS: usize = 5;
    let mut times = vec![Vec::with_capacity(ROUNDS); evals.len()];
    for _ in 0..ROUNDS {
        for (i, (_, _, _, pass)) in evals.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            let _ = pass();
            times[i].push(t0.elapsed().as_nanos() as f64);
        }
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let per_inst: Vec<f64> = times
        .iter_mut()
        .zip(&evals)
        .map(|(v, (_, _, batch, _))| median(v) / *batch as f64)
        .collect();
    let interp_per_inst = per_inst[0];
    let mut scalar64_speedup = 0.0;
    for (i, (mode, kernel, batch, _)) in evals.iter().enumerate() {
        let speedup = interp_per_inst / per_inst[i];
        if *kernel == "scalar" && *batch == 64 {
            scalar64_speedup = speedup;
        }
        t.row(vec![
            (*mode).into(),
            (*kernel).into(),
            batch.to_string(),
            f(per_inst[i] / 1e3),
            f(gates / (per_inst[i] / 1e9) / 1e6),
            f(speedup),
        ]);
    }

    // --- Part 2: GMW secure triangle evaluation through the session
    // protocol, one packed triple per AND step, against its own batch-1
    // run. Empty-database inputs keep every degree-constraint assert
    // quiet; outputs are still cross-checked against plaintext. ---
    let tri_n = if smoke { 4 } else { 8 };
    let (rc, _) = triangle_heavy_light(tri_n);
    let tri = rc.lower().circuit;
    let tri_bits = lower_with(&tri, 8, &CompileOptions::from_env());
    let tri_eng = CompiledBitCircuit::compile_gmw(&tri_bits);
    let and_depth = u64::from(tri_bits.and_depth());
    let zeros = vec![false; tri_bits.num_inputs()];
    let plain = tri_bits.evaluate(&zeros).expect("empty db evaluates");
    // (lanes, batch) pairs: batch scales at a fixed 64-lane width so the
    // two register files stay cache-resident, plus one 256-lane point to
    // show the cost of quadrupling the packed word count. The first
    // point, a single instance, is the baseline the speedups divide.
    let gmw_points = [(64usize, 1usize), (64, 64), (64, 256), (256, 256)];
    let gmw_insts: Vec<Vec<bool>> =
        vec![zeros.clone(); gmw_points.iter().map(|&(_, b)| b).max().expect("nonempty")];
    let mut gmw_times: Vec<Vec<f64>> = vec![Vec::new(); gmw_points.len()];
    let gmw_rounds = if smoke { 1 } else { 3 };
    let mut batched_stats = qec_mpc::ProtocolStats::default();
    // AND-level exchanges per lane block; the GMW schedule makes this
    // the circuit's AND depth on every run.
    let mut rounds = 0u64;
    for _ in 0..gmw_rounds {
        for (i, &(lanes, batch)) in gmw_points.iter().enumerate() {
            let t0 = std::time::Instant::now();
            let (outs, st) = qec_mpc::run_two_party(&tri_eng, &gmw_insts[..batch], lanes, 1)
                .expect("batched gmw");
            gmw_times[i].push(t0.elapsed().as_nanos() as f64);
            batched_stats = st;
            rounds = st.rounds / batch.div_ceil(lanes) as u64;
            correct &= rounds == and_depth;
            correct &= outs
                .iter()
                .all(|o| o.as_ref().map(|v| v == &plain).unwrap_or(false));
        }
    }
    let gmw_per_inst: Vec<f64> = gmw_times
        .iter_mut()
        .zip(&gmw_points)
        .map(|(v, &(_, batch))| median(v) / batch as f64)
        .collect();
    let batch1_per_inst = gmw_per_inst[0];
    let mut gmw64_speedup = 0.0;
    for (&(lanes, batch), &ns) in gmw_points.iter().zip(&gmw_per_inst) {
        let speedup = batch1_per_inst / ns;
        if lanes == 64 && batch == 64 {
            gmw64_speedup = speedup;
        }
        t.row(vec![
            "gmw-batched".into(),
            format!("{lanes}-lane"),
            batch.to_string(),
            f(ns / 1e3),
            f(tri_bits.gate_count() as f64 / (ns / 1e9) / 1e6),
            f(speedup),
        ]);
    }

    t.verdict(format!(
        "{} bit gates, peak {} registers, kernels [{}] — scalar batch-64 bitslicing is {}x the per-instance interpreter ({}; target ≥8x), and session GMW at batch 64 is {}x its own batch-1 run per instance ({} ANDs, {} triples/AND-step packed, {rounds} rounds per block = AND depth {and_depth}; correct: {correct})",
        eng.stats().tape_len,
        eng.stats().peak_registers,
        BitKernel::available()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", "),
        f(scalar64_speedup),
        if scalar64_speedup >= 8.0 {
            "meets the ≥8x target"
        } else {
            "BELOW the ≥8x target"
        },
        f(gmw64_speedup),
        tri_bits.and_count(),
        batched_stats.and_gates / tri_bits.and_count().max(1),
    ));
    t
}

/// X22 — the serving layer: plan cache + continuous request batching.
/// Simulated concurrent clients fire single triangle queries (eight
/// distinct databases, one shared plan) at a `qec-serve` server and the
/// experiment measures p50/p99 latency and queries/sec across four
/// regimes: cold (every request pays the full compile against a fresh
/// server), warm batch-1 (plan cached, no coalescing — the A/B
/// baseline), warm coalesced closed-loop at 8–1000 clients, and warm
/// coalesced open-loop at 1000–10000 in-flight requests. Every response
/// is checked against the RAM ground truth for its client's database;
/// the divergence column must stay 0.
///
/// Latency semantics: closed-loop rows report client-observed wall
/// latency (submit to response, one outstanding request per client);
/// open-loop rows report server sojourn time (queue wait + batch
/// service) taken from the response metadata, since a ticket's wall
/// time in a drain loop would also count time spent waiting on
/// *earlier* tickets.
///
/// Sizing knob: `QEC_X22_SMOKE=1` shrinks client counts for CI and
/// asserts nonzero cache hits and zero divergences.
pub fn x22_serve() -> Table {
    use qec_relation::{Database, Relation};
    use qec_serve::{Request, Server, ServerConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let smoke = std::env::var("QEC_X22_SMOKE").is_ok_and(|v| v == "1");
    let mut t = Table::new(
        "X22  Serving layer: compiled-plan cache + continuous batching, cold vs warm, batch-1 vs coalesced",
        &[
            "mode", "clients", "requests", "p50_ms", "p99_ms", "qps", "hits", "div",
        ],
    );

    // Workload: the triangle query over eight distinct databases (one
    // per client mod 8) that all share one plan key. Capacity 16 keeps
    // a single evaluation in the hundreds-of-microseconds range, so
    // batching effects are visible but a 10k-request sweep stays fast.
    const DISTINCT: usize = 8;
    let n: u64 = if smoke { 8 } else { 16 };
    let query = "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)";
    let request = move |client: usize| -> Request {
        let seed = (client % DISTINCT) as u64 * 101 + 7;
        let rows = |salt: u64| -> Vec<Vec<u64>> {
            (0..n)
                .map(|i| {
                    vec![
                        (i * 7 + seed + salt) % n,
                        (i * 13 + seed + 2 * salt + 1) % n,
                    ]
                })
                .collect()
        };
        Request {
            tenant: format!("tenant-{}", client % 4),
            query: query.into(),
            n,
            rels: vec![
                ("R".into(), rows(1)),
                ("S".into(), rows(2)),
                ("T".into(), rows(3)),
            ],
        }
    };
    // Ground truth per distinct database, via the RAM baseline.
    let expected: Vec<Relation> = (0..DISTINCT)
        .map(|c| {
            let req = request(c);
            let cq = qec_query::parse_cq(&req.query).expect("workload query parses");
            let mut db = Database::new();
            for (name, rows) in &req.rels {
                let atom = cq.atoms.iter().find(|a| a.name == *name).expect("atom");
                db.insert(
                    name.clone(),
                    Relation::from_rows(atom.vars.to_vec(), rows.clone()),
                );
            }
            evaluate_pairwise(&cq, &db).expect("baseline evaluates")
        })
        .collect();
    let expected = Arc::new(expected);
    let check = |client: usize, rels: &[Relation]| -> usize {
        rels.iter()
            .filter(|r| *r != &expected[client % DISTINCT])
            .count()
    };

    let pct = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    };
    let ms = |ns: f64| ns / 1e6;

    let mut divergences = 0usize;

    // --- Cold: a fresh server (empty cache) per request, so every
    // request pays parse + plan + lower + compile. ---
    let cold_reqs = if smoke { 1 } else { 3 };
    let mut cold_lat: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    for i in 0..cold_reqs {
        let server = Server::start(ServerConfig::default());
        let t1 = Instant::now();
        let resp = server.query(request(i)).expect("cold request serves");
        cold_lat.push(t1.elapsed().as_nanos() as f64);
        divergences += check(i, &resp.relations);
    }
    let cold_wall = t0.elapsed().as_secs_f64();
    cold_lat.sort_by(f64::total_cmp);
    let p50_cold = pct(&cold_lat, 0.5);
    t.row(vec![
        "cold-per-request".into(),
        "1".into(),
        cold_reqs.to_string(),
        f(ms(p50_cold)),
        f(ms(pct(&cold_lat, 0.99))),
        f(cold_reqs as f64 / cold_wall),
        "0".into(),
        divergences.to_string(),
    ]);

    // --- Warm servers: one with coalescing, one at batch size 1. Both
    // compile their plan once during warmup. ---
    let mk_server = |max_batch: usize| -> Arc<Server> {
        let server = Arc::new(Server::start(ServerConfig {
            queue_capacity: 16_384,
            max_batch,
            flush: Duration::from_micros(500),
            ..ServerConfig::default()
        }));
        let resp = server.query(request(0)).expect("warmup serves");
        assert!(!resp.cache_hit || resp.batch_size >= 1);
        server
    };
    let coalesced = mk_server(64);
    let batch1 = mk_server(1);

    // Closed loop: `clients` threads, each with one outstanding request
    // at a time; client-observed wall latency.
    let closed =
        |server: &Arc<Server>, clients: usize, per_client: usize| -> (Vec<f64>, f64, usize) {
            let t0 = Instant::now();
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = server.clone();
                    let expected = expected.clone();
                    std::thread::spawn(move || {
                        let mut lat = Vec::with_capacity(per_client);
                        let mut div = 0usize;
                        for _ in 0..per_client {
                            let t1 = Instant::now();
                            let resp = server.query(request(c)).expect("closed-loop request");
                            lat.push(t1.elapsed().as_nanos() as f64);
                            div += resp
                                .relations
                                .iter()
                                .filter(|r| *r != &expected[c % DISTINCT])
                                .count();
                        }
                        (lat, div)
                    })
                })
                .collect();
            let mut lat = Vec::new();
            let mut div = 0;
            for h in handles {
                let (l, d) = h.join().expect("client thread");
                lat.extend(l);
                div += d;
            }
            let wall = t0.elapsed().as_secs_f64();
            lat.sort_by(f64::total_cmp);
            (lat, wall, div)
        };

    let closed_clients: Vec<usize> = if smoke {
        vec![2, 4]
    } else {
        vec![1, 8, 64, 256, 1000]
    };
    let per_client = |clients: usize| -> usize {
        if smoke {
            2
        } else if clients >= 256 {
            4
        } else if clients >= 64 {
            16
        } else {
            64
        }
    };

    let mut qps_batch1_64 = 0.0;
    let mut qps_coalesced_64 = 0.0;
    let mut p50_warm = f64::MAX;
    for (label, server) in [("closed-batch1", &batch1), ("closed-coalesced", &coalesced)] {
        for &clients in &closed_clients {
            // The batch-1 baseline only needs the comparison point (and
            // a small one), not the full sweep.
            let compare_at = if smoke { closed_clients[1] } else { 64 };
            if label == "closed-batch1" && clients != compare_at {
                continue;
            }
            let hits0 = server.cache_stats().hits;
            let (lat, wall, div) = closed(server, clients, per_client(clients));
            divergences += div;
            let qps = lat.len() as f64 / wall;
            let p50 = pct(&lat, 0.5);
            if clients == compare_at {
                if label == "closed-batch1" {
                    qps_batch1_64 = qps;
                } else {
                    qps_coalesced_64 = qps;
                }
            }
            if label == "closed-coalesced" {
                p50_warm = p50_warm.min(p50);
            }
            t.row(vec![
                label.into(),
                clients.to_string(),
                lat.len().to_string(),
                f(ms(p50)),
                f(ms(pct(&lat, 0.99))),
                f(qps),
                (server.cache_stats().hits - hits0).to_string(),
                div.to_string(),
            ]);
        }
    }

    // Open loop: all requests submitted up front (arrivals independent
    // of completions), sojourn time from response metadata.
    let open_clients: Vec<usize> = if smoke { vec![16] } else { vec![1000, 10_000] };
    for &clients in &open_clients {
        let hits0 = coalesced.cache_stats().hits;
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..clients)
            .map(|c| {
                coalesced
                    .submit(request(c))
                    .expect("queue sized for the sweep")
            })
            .collect();
        let mut lat = Vec::with_capacity(clients);
        let mut div = 0usize;
        for (c, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().expect("open-loop request");
            lat.push((resp.queue_ns + resp.total_ns) as f64);
            div += check(c, &resp.relations);
        }
        let wall = t0.elapsed().as_secs_f64();
        divergences += div;
        lat.sort_by(f64::total_cmp);
        t.row(vec![
            "open-coalesced".into(),
            clients.to_string(),
            clients.to_string(),
            f(ms(pct(&lat, 0.5))),
            f(ms(pct(&lat, 0.99))),
            f(clients as f64 / wall),
            (coalesced.cache_stats().hits - hits0).to_string(),
            div.to_string(),
        ]);
    }

    let total_hits = coalesced.cache_stats().hits + batch1.cache_stats().hits;
    let cold_vs_warm = p50_cold / p50_warm.max(1e-9);
    let coalesce_gain = qps_coalesced_64 / qps_batch1_64.max(1e-9);
    if smoke {
        assert!(
            total_hits > 0,
            "smoke: warm serving must hit the plan cache"
        );
        assert_eq!(
            divergences, 0,
            "smoke: serve results must match ground truth"
        );
    }
    t.verdict(format!(
        "warm p50 is {}x better than cold-compile-per-request (target >=10x: {}); coalesced qps is {}x batch-1 at 64 clients (target >=1.3x: {}); {} cache hits, {} compiles, {} divergences",
        f(cold_vs_warm),
        if cold_vs_warm >= 10.0 { "met" } else { "MISSED" },
        f(coalesce_gain),
        if coalesce_gain >= 1.3 { "met" } else { "MISSED" },
        total_hits,
        coalesced.cache_stats().misses + batch1.cache_stats().misses,
        divergences,
    ));
    t
}

/// X23 — Networked two-party GMW: secure triangle counting driven end
/// to end through `qec_mpc::Session` over a real `Transport`. The same
/// heavy/light triangle circuit runs over the in-process `Duplex` pair
/// and over a TCP localhost socket, and the table reports the protocol
/// cost model the paper's Section 1 motivates: rounds (asserted equal
/// to the tape's AND depth — one framed message per AND level), bytes
/// on the wire, and wall clock, as N grows.
///
/// Sizing knob: `QEC_X23_SMOKE=1` shrinks the N sweep for CI.
pub fn x23_networked_gmw() -> Table {
    use qec_circuit::CompiledBitCircuit;
    use qec_mpc::{
        run_sessions, share_instances, Duplex, Outcome, PackedDealer, TcpTransport, Transport,
    };
    use std::time::Instant;

    let smoke = std::env::var("QEC_X23_SMOKE").is_ok_and(|v| v == "1");
    let mut t = Table::new(
        "X23  Networked GMW: secure triangle counting, one message per AND level, Duplex vs TCP localhost",
        &[
            "transport",
            "N",
            "bit_gates",
            "AND_depth",
            "rounds",
            "KiB_sent",
            "ms",
            "triangles",
        ],
    );

    /// Both parties over `transports`, fed by a split packed dealer.
    fn sessions<T0, T1>(
        eng: &CompiledBitCircuit,
        transports: (T0, T1),
        s0: &[Vec<bool>],
        s1: &[Vec<bool>],
        seed: u64,
    ) -> (Outcome, Outcome)
    where
        T0: Transport,
        T1: Transport + Send,
    {
        let triples = PackedDealer::new(eng.stats().and_ops as usize, 1, seed).split();
        let (o0, o1) = run_sessions(eng, 1, transports, triples, (s0, s1));
        (o0.expect("P0 session"), o1.expect("P1 session"))
    }

    let ns: Vec<u64> = if smoke { vec![4] } else { vec![4, 8, 16] };
    for &n in &ns {
        let (rc, _) = triangle_heavy_light(n);
        let lowered = rc.lower();
        // AGM worst-case data: a √N×√N bipartite grid per relation, so
        // the count being computed securely is a guaranteed-nonzero
        // N^1.5 triangles.
        let (r, s, tt) = qec_relation::agm_worst_case_triangle(Var(0), Var(1), Var(2), n as usize);
        let mut db = qec_relation::Database::new();
        db.insert("R", r);
        db.insert("S", s);
        db.insert("T", tt);
        let expected = lowered.run(&db).expect("plaintext word run");
        let triangles = expected[0].len();
        let word_inputs = lowered.layout.values(&db).expect("layout inputs");
        let bits = lower_with(&lowered.circuit, 8, &CompileOptions::from_env());
        let bit_inputs = bits.pack_inputs(&word_inputs);
        let plain = bits.evaluate(&bit_inputs).expect("plaintext bit run");
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        let and_depth = bits.and_depth() as u64;
        assert_eq!(
            eng.stats().and_levels as u64,
            and_depth,
            "GMW schedule must be round-optimal"
        );
        let (s0v, s1v) = share_instances(std::slice::from_ref(&bit_inputs), 31 + n);

        for transport in ["duplex", "tcp"] {
            let t0i = Instant::now();
            let (o0, o1) = if transport == "duplex" {
                sessions(&eng, Duplex::pair(), &s0v, &s1v, 900 + n)
            } else {
                let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
                let addr = listener.local_addr().expect("local addr");
                let conn = std::thread::spawn(move || {
                    TcpTransport::connect(addr, qec_mpc::DEFAULT_TIMEOUT).expect("connect")
                });
                let a = TcpTransport::accept(&listener, qec_mpc::DEFAULT_TIMEOUT).expect("accept");
                let b = conn.join().expect("connect thread");
                sessions(&eng, (a, b), &s0v, &s1v, 900 + n)
            };
            let ms = t0i.elapsed().as_secs_f64() * 1e3;
            for o in [&o0, &o1] {
                assert_eq!(
                    o.results[0].as_ref().expect("secure output"),
                    &plain,
                    "secure output must be bit-identical to plaintext"
                );
                assert_eq!(o.stats.rounds, and_depth, "one message per AND level");
            }
            assert_eq!(o0.stats.bytes_sent, o1.stats.bytes_recv);
            t.row(vec![
                transport.into(),
                n.to_string(),
                eng.stats().tape_len.to_string(),
                and_depth.to_string(),
                o0.stats.rounds.to_string(),
                f(o0.stats.bytes_sent as f64 / 1024.0),
                f(ms),
                triangles.to_string(),
            ]);
        }
    }
    t.verdict(format!(
        "every run exchanged exactly AND-depth framed messages (rounds == AND depth, asserted) with bit-identical outputs on both transports; sweep N = {ns:?}, TCP-localhost overhead is the ms delta against the in-process Duplex rows"
    ));
    t
}

/// X24 — Recursive Datalog by bounded-fixpoint unrolling: does online
/// hash-consing actually collapse cross-iteration redundancy, and how
/// far below the flat monomial expansion does the factorised provenance
/// DAG sit? For transitive closure (Boolean) and all-pairs shortest
/// path (min-tropical) at domain `d`, the unrolled circuit is lowered
/// twice — with and without CSE — and the provenance
/// extraction over a seeded random graph reports DAG nodes vs the
/// number of monomials a flat polynomial would carry (the
/// factorised-vs-flat gap of Berkholz-style bounds).
///
/// Sizing knob: `QEC_X24_SMOKE=1` shrinks the domain sweep for CI.
pub fn x24_datalog_fixpoint() -> Table {
    use qec_datalog::{compile, database, provenance, seminaive, workloads, FixpointBounds};

    let smoke = std::env::var("QEC_X24_SMOKE").is_ok_and(|v| v == "1");
    let domains: &[u64] = if smoke { &[3, 4] } else { &[4, 6, 8] };
    let mut t = Table::new(
        "X24  Recursive Datalog: bounded-fixpoint unrolling, cross-iteration hash-consing, provenance DAG vs flat monomials",
        &[
            "workload",
            "d",
            "rounds",
            "edges",
            "out_tuples",
            "gates_cse",
            "gates_naive",
            "collapse",
            "prov_dag",
            "prov_monomials",
        ],
    );

    let f = |x: f64| format!("{x:.2}");
    for (name, program, weighted) in [
        ("tc", workloads::TRANSITIVE_CLOSURE, false),
        ("sp", workloads::SHORTEST_PATH, true),
    ] {
        let dp = qec_datalog::DatalogProgram::parse(program).expect("workload program parses");
        for &d in domains {
            let m = 2 * d as usize;
            let edges = if weighted {
                workloads::random_weighted_edges(d, m, 6, 0x24 + d)
            } else {
                workloads::random_edges(d, m, 0x24 + d)
            };
            let edge_count = edges.len();
            let db = database(&dp, &[("edge", edges)]).expect("workload instance loads");
            let bounds = FixpointBounds::for_domain(d, m as u64);

            // The same relational circuit, lowered with and without
            // online hash-consing: the gap is exactly the structure the
            // unrolled rounds share.
            let fx = compile(&dp, &bounds).expect("workload compiles");
            let consed = fx.rc.lower().circuit.size();
            let naive = fx.rc.lower_without_cse().circuit.size();
            assert!(
                consed < naive,
                "{name} d={d}: consing must collapse cross-iteration redundancy ({consed} vs {naive})"
            );

            // Provenance over the same instance: DAG nodes (factorised)
            // vs the monomial count a flat polynomial would need.
            let reference = seminaive(&dp, &db, bounds.rounds).expect("reference runs");
            let pr = provenance(&dp, &db, bounds.rounds).expect("provenance extracts");
            let roots: Vec<_> = pr.outputs.values().copied().collect();
            let dag = pr.circuit.dag_size(&roots);
            const CAP: u64 = 10_000_000;
            let mut monomials = Some(0u64);
            for &root in &roots {
                monomials = match (monomials, pr.circuit.monomials(root, CAP)) {
                    (Some(a), Some(b)) if a.saturating_add(b) <= CAP => Some(a + b),
                    _ => None,
                };
            }
            t.row(vec![
                name.into(),
                d.to_string(),
                bounds.rounds.to_string(),
                edge_count.to_string(),
                reference.tuples.len().to_string(),
                consed.to_string(),
                naive.to_string(),
                f(naive as f64 / consed as f64),
                dag.to_string(),
                monomials.map_or(format!(">{CAP}"), |m| m.to_string()),
            ]);
        }
    }
    t.verdict(format!(
        "hash-consing collapsed the unrolled rounds on every row (asserted; collapse = gates_naive/gates_cse), and the factorised provenance DAG stays polynomial while flat monomial counts track path enumeration; sweep d = {domains:?}"
    ));
    t
}
