//! The experiment harness: regenerates every figure, worked table, and
//! theorem-shaped claim of the paper (index E1–E15, see DESIGN.md and
//! EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p no-bench --bin experiments -- all
//! cargo run --release -p no-bench --bin experiments -- e2 e7 e8
//! ```

use minipool::ThreadPool;
use no_bench::fixtures;
use no_core::ast::{Formula, Term};
use no_core::eval::{active_order, eval_pooled, Env, Evaluator, Query};
use no_core::orders::{LtBase, OrderSynth};
use no_core::ranges::safe_eval_pooled;
use no_core::report::{classify as classify_query, InputAssumption};
use no_core::{code, parser, print::Printer};
use no_datalog::{DTerm, Literal, Program, Strategy};
use no_density::{analysis, families};
use no_object::domain::{card, DomainIter};
use no_object::encoding::{domain_size, encode_instance, instance_size};
use no_object::order::induced_cmp;
use no_object::Governor;
use no_object::Limits;
use no_object::{hyper, AtomOrder, Instance, Type, Universe, Value};
use no_tm::formula::CompiledSim;
use no_tm::machine::{Machine, Move};
use no_tm::sim::RelationalRun;
use std::time::Instant;

/// Turn any failable value into a displayable error so experiments
/// propagate failures instead of panicking; `main` reports them on stderr
/// and exits nonzero.
trait OrFail<T> {
    fn orfail(self) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> OrFail<T> for Result<T, E> {
    fn orfail(self) -> Result<T, String> {
        self.map_err(|e| e.to_string())
    }
}

impl<T> OrFail<T> for Option<T> {
    fn orfail(self) -> Result<T, String> {
        self.ok_or_else(|| "a value was unexpectedly absent".to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15", "e16", "e17",
    ];
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failures = Vec::new();
    for id in selected {
        let result = match id {
            "e1" => e1(),
            "e2" => e2(),
            "e3" => e3(),
            "e4" => e4(),
            "e5" => e5(),
            "e6" => e6(),
            "e7" => e7(),
            "e8" => e8(),
            "e9" => e9(),
            "e10" => e10(),
            "e11" => e11(),
            "e12" => e12(),
            "e13" => e13(),
            "e14" => e14(),
            "e15" => e15(),
            "e16" => e16(),
            "e17" => e17(),
            other => Err(format!("unknown experiment {other:?} (use e1..e17 or all)")),
        };
        if let Err(e) = result {
            eprintln!("error: experiment {id} failed: {e}");
            failures.push(id.to_string());
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "error: {} experiment(s) failed: {}",
            failures.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
}

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// E1 — the type-tree figure of Section 2.
fn e1() -> Result<(), String> {
    header(
        "E1",
        "type trees, set height, tuple width (Section 2 figure)",
    );
    let t = Type::set(Type::tuple(vec![
        Type::Atom,
        Type::set(Type::tuple(vec![Type::Atom, Type::Atom])),
    ]));
    println!("type: {t}");
    println!("{}", t.tree_diagram());
    println!(
        "set height = {} (paper: 2), tuple width = {} (paper: 2)",
        t.set_height(),
        t.tuple_width()
    );
    for (i, k) in [(1usize, 2usize), (2, 1), (2, 2)] {
        println!("  is <{i},{k}>-type: {}", t.is_ik(i, k));
    }
    Ok(())
}

/// E2 — Figure 1's instance and Figure 2's tape encoding, byte-exact.
fn e2() -> Result<(), String> {
    header("E2", "Figures 1 & 2: the instance I and enc(I)");
    let (_u, order, i) = fixtures::figure1_instance();
    println!("instance I:\n{i}");
    let enc = encode_instance(&order, &i);
    let paper = "P[01#{00#01}#[10#{00#10}]][10#{10}#[00#{01#10}]]";
    println!("enc(I)  = {enc}");
    println!("paper   = {paper}");
    println!("exact match: {}", enc == paper);
    println!(
        "|I| = {}, ||I|| = {}",
        i.cardinality(),
        instance_size(&order, &i)
    );
    let back = no_object::encoding::decode_instance(&order, i.schema(), &enc).orfail()?;
    println!("decode(enc(I)) == I: {}", back == i);
    Ok(())
}

/// E3 — Proposition 2.1: ‖dom(T,D)‖ is |dom|·polylog.
fn e3() -> Result<(), String> {
    header("E3", "Proposition 2.1: ||dom(T,D)|| <= |dom|*P(log|dom|)");
    for ty in [
        Type::set(Type::Atom),
        Type::set(Type::tuple(vec![Type::Atom, Type::Atom])),
        Type::tuple(vec![Type::Atom, Type::set(Type::Atom)]),
    ] {
        println!("type {ty}:");
        println!(
            "{:>4} {:>14} {:>14} {:>10}",
            "n", "|dom|", "||dom||", "ratio"
        );
        for n in [2usize, 4, 6, 8, 10, 12] {
            let c = match card(&ty, n) {
                Ok(c) => c,
                Err(_) => break,
            };
            let Some(cu) = c.to_u64() else { break };
            if cu > 1 << 22 {
                break;
            }
            let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            let u = Universe::with_names(names.iter().map(String::as_str));
            let order = AtomOrder::identity(&u);
            let size = domain_size(&order, &ty).orfail()?;
            let denom = cu as f64 * (cu as f64).log2().max(1.0);
            println!("{n:>4} {cu:>14} {size:>14} {:>10.3}", size as f64 / denom);
        }
    }
    println!("ratio must stay bounded by a polynomial in log log |dom| — flat/shrinking is a pass");
    Ok(())
}

/// E4 — the hyper(i,k) tower of Section 2.
fn e4() -> Result<(), String> {
    header("E4", "hyper(i,k)(n) growth and the domain bound");
    println!(
        "{:>3} {:>3} {:>3} {:>24} {:>16} expression",
        "i", "k", "n", "hyper exact", "log2"
    );
    for (i, k, n) in [
        (0usize, 2u32, 5usize),
        (1, 1, 3),
        (1, 2, 2),
        (1, 2, 3),
        (2, 1, 2),
        (2, 2, 2),
        (2, 2, 3),
        (3, 2, 3),
    ] {
        let exact = hyper::hyper(i, k, n)
            .map(|v| {
                let s = v.to_string();
                if s.len() > 20 {
                    format!("~10^{}", s.len() - 1)
                } else {
                    s
                }
            })
            .unwrap_or_else(|| "over cap".into());
        let log = hyper::hyper_log2(i, k, n);
        println!(
            "{i:>3} {k:>3} {n:>3} {exact:>24} {log:>16.3e} {}",
            hyper::hyper_expr(i, k, n)
        );
    }
    // domain bound check on the paper's type
    let t = Type::set(Type::tuple(vec![
        Type::Atom,
        Type::set(Type::tuple(vec![Type::Atom, Type::Atom])),
    ]));
    for n in 1..=3usize {
        let c = card(&t, n).orfail()?;
        let h = hyper::hyper(2, 2, n).orfail()?;
        println!(
            "n={n}: |dom({t})| has {} bits <= hyper(2,2) with {} bits: {}",
            c.bit_len(),
            h.bit_len(),
            c <= h
        );
    }
    Ok(())
}

/// E5 — Definition 4.1 and Lemma 4.1 on generated families.
fn e5() -> Result<(), String> {
    header(
        "E5",
        "density/sparsity classification; Lemma 4.1 equivalence",
    );
    let run = |name: &str, points: Vec<analysis::Measurement>| {
        let (by_card, by_size, agree) = no_density::classify_both(&points);
        println!(
            "{name:<22} card => {:?} (exp {:.2}/{:.2}), size => {:?}, measures agree: {agree}",
            by_card.class, by_card.density_exponent, by_card.sparsity_exponent, by_size.class
        );
        for m in &points {
            println!(
                "    n={:<3} |I|={:<7} ||I||={:<9} log2|dom(1,k)|={:.1}",
                m.atoms, m.cardinality, m.size, m.dom_log2
            );
        }
    };
    run(
        "subsets (dense)",
        (6..=12)
            .map(|n| {
                let g = families::subset_family(n);
                analysis::measure(&g.order, &g.instance, 1, 1)
            })
            .collect(),
    );
    run(
        "VERSO keyed (sparse)",
        (6..=16)
            .step_by(2)
            .map(|n| {
                let g = families::verso_family(n, 11);
                analysis::measure(&g.order, &g.instance, 1, 1)
            })
            .collect(),
    );
    run(
        "enrollment b<=2 (sparse)",
        (6..=14)
            .step_by(2)
            .map(|n| {
                let g = families::bounded_enrollment_family(n, 2);
                analysis::measure(&g.order, &g.instance, 1, 1)
            })
            .collect(),
    );
    Ok(())
}

/// E6 — Lemma 4.3: the synthesized φ_{<T} defines the induced order.
fn e6() -> Result<(), String> {
    header("E6", "Lemma 4.3: definable orders vs native induced order");
    let names = ["a0", "a1", "a2"];
    let u = Universe::with_names(names);
    let order = AtomOrder::identity(&u);
    let instance = no_tm::formula::lt_instance(&order);
    for ty in [
        Type::set(Type::Atom),
        Type::tuple(vec![Type::Atom, Type::set(Type::Atom)]),
        Type::set(Type::tuple(vec![Type::Atom, Type::Atom])),
    ] {
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let formula = synth.less(&ty, Term::var("x"), Term::var("y"));
        let values: Vec<Value> = DomainIter::new(&order, &ty).orfail()?.take(40).collect();
        let mut ev = Evaluator::new(&instance, order.clone(), Governor::default());
        let t0 = Instant::now();
        let mut agree = 0usize;
        let mut total = 0usize;
        for a in &values {
            for b in &values {
                let mut env = Env::new();
                env.push("x", a.clone());
                env.push("y", b.clone());
                let by_f = ev.holds(&formula, &mut env).orfail()?;
                let native = induced_cmp(&order, a, b) == std::cmp::Ordering::Less;
                total += 1;
                if by_f == native {
                    agree += 1;
                }
            }
        }
        println!(
            "type {ty}: {agree}/{total} comparisons agree with Definition 4.2 ({:.1} ms, {} eval steps)",
            ms(t0),
            ev.steps_used()
        );
    }
    Ok(())
}

/// E7 — Lemma 4.4's CODE_U table, byte-exact, plus CODE_T reassembly.
fn e7() -> Result<(), String> {
    header("E7", "Lemma 4.4: the CODE_U table for constants a..e");
    let u = Universe::with_names(["a", "b", "c", "d", "e"]);
    let order = AtomOrder::identity(&u);
    println!("{}", code::render_code_u_table(&u, &order));
    let u3 = Universe::with_names(["a", "b", "c"]);
    let order3 = AtomOrder::identity(&u3);
    let ty = Type::set(Type::Atom);
    let code_t = code::CodeT::build(&order3, &ty).orfail()?;
    let mut ok = 0usize;
    let mut total = 0usize;
    for v in DomainIter::new(&order3, &ty).orfail()? {
        total += 1;
        if code_t.reassemble(&v) == no_object::encoding::value_to_string(&order3, &v) {
            ok += 1;
        }
    }
    println!("CODE_{{{ty}}}: {ok}/{total} objects reassemble to their standard encoding");
    println!(
        "index width m = {} (positions as m-tuples of atoms)",
        code_t.index_width
    );
    Ok(())
}

/// E8 — fixpoint recursion vs powerset recursion (Theorem 4.1(2)'s shape).
fn e8() -> Result<(), String> {
    let seq = ThreadPool::sequential();
    header(
        "E8",
        "transitive closure: IFP vs powerset CALC_2^2 vs Datalog",
    );
    let mut p = Program::new();
    p.declare("tc", vec![Type::Atom, Type::Atom]);
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![Literal::Pos(
            "G".into(),
            vec![DTerm::var("x"), DTerm::var("y")],
        )],
    );
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![
            Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
            Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
        ],
    );
    println!(
        "{:>3} {:>12} {:>14} {:>12} {:>16}",
        "n", "ifp ms", "ifp steps", "datalog ms", "powerset"
    );
    for n in [2usize, 3, 4, 6, 8] {
        let g = families::cycle_graph(n);
        let q = fixtures::tc_ifp_query(&Type::Atom);
        let order = active_order(&g.instance, &q);
        let mut ev = Evaluator::new(&g.instance, order, Governor::default());
        let t0 = Instant::now();
        let ans = ev.query(&q).orfail()?;
        let ifp_ms = ms(t0);
        let steps = ev.steps_used();
        assert_eq!(ans.len(), n * n);
        let t1 = Instant::now();
        let _ = no_datalog::eval_pooled(
            &p,
            &g.instance,
            Strategy::SemiNaive,
            &Governor::default(),
            &seq,
        )
        .orfail()?;
        let dl_ms = ms(t1);
        let pow = if n <= 3 {
            let t2 = Instant::now();
            let pans = eval_pooled(
                &fixtures::tc_powerset_query(&Type::Atom),
                &g.instance,
                &Governor::default(),
                &seq,
            )
            .orfail()?;
            assert_eq!(pans, ans);
            format!("{:.1} ms", ms(t2))
        } else {
            // 2^(n^2) candidate sets: report the refusal instead of hanging
            match eval_pooled(
                &fixtures::tc_powerset_query(&Type::Atom),
                &g.instance,
                &Governor::new(Limits::tight()),
                &seq,
            ) {
                Err(e) => format!("blows up ({})", short(&e.to_string())),
                Ok(_) => "unexpectedly finished".into(),
            }
        };
        println!("{n:>3} {ifp_ms:>12.2} {steps:>14} {dl_ms:>12.2} {pow:>16}");
    }
    println!("shape: IFP/Datalog polynomial; powerset hyperexponential, dead by n=4 (2^16 sets)");
    Ok(())
}

fn short(s: &str) -> String {
    if s.len() > 40 {
        format!("{}…", &s[..40])
    } else {
        s.to_string()
    }
}

/// E9 — the Theorem 4.1 simulation ladder on the Figure 1 instance.
fn e9() -> Result<(), String> {
    header(
        "E9",
        "Theorem 4.1: machine vs relational R_M vs CALC+IFP formula",
    );
    // full-size semantic simulation on the paper's instance
    let (_u, order, i) = fixtures::figure1_instance();
    let machine = no_tm::machines::identity();
    let input = encode_instance(&order, &i);
    let t0 = Instant::now();
    let direct = machine.run(&input, 100_000).orfail()?;
    let direct_ms = ms(t0);
    let t1 = Instant::now();
    let mut rel_run = RelationalRun::new(&machine, &order, 4, &input).orfail()?;
    rel_run.run_to_halt().orfail()?;
    let rel_ms = ms(t1);
    println!("identity machine on enc(I) ({} symbols):", input.len());
    println!("  direct     : {} steps, {:.2} ms", direct.steps, direct_ms);
    println!(
        "  relational : {} R_M rows over {} timestamps, {:.2} ms",
        rel_run.row_count(),
        rel_run.history.len(),
        rel_ms
    );
    println!("  outputs equal: {}", direct.output == rel_run.output());
    println!("\nfirst rows of the initial configuration (paper's p.17 table):");
    for line in rel_run.render_configuration(0).lines().take(6) {
        println!("  {line}");
    }
    // formula-level ladder on a tiny machine
    let mut b = Machine::builder('_');
    b.state("scan")
        .rule("scan", '0', '1', Move::Right, "scan")
        .rule("scan", '1', '0', Move::Right, "scan")
        .rule("scan", '_', '_', Move::Stay, "done")
        .halting("done");
    let flipper = b.build().orfail()?;
    let names = ["a0", "a1", "a2", "a3"];
    let u4 = Universe::with_names(names);
    let order4 = AtomOrder::identity(&u4);
    let sim = CompiledSim::compile(&flipper, &order4, 1, "01").orfail()?;
    let t2 = Instant::now();
    let rel = sim.run(&Governor::default()).orfail()?;
    let formula_ms = ms(t2);
    let t3 = Instant::now();
    let d = flipper.run("01", 100).orfail()?;
    let tiny_direct_ms = ms(t3);
    println!("\nflipper on \"01\" (formula-level, generic evaluator):");
    println!(
        "  direct        : {} steps, {:.4} ms",
        d.steps, tiny_direct_ms
    );
    println!(
        "  CALC+IFP      : {} R_M rows (timestamped), {:.2} ms, output {:?}",
        rel.len(),
        formula_ms,
        sim.decode_output(&rel).orfail()?
    );
    // Theorem 4.1(3)'s remark: PFP needs no timestamps — the relation only
    // ever holds the current configuration
    let pfp = no_tm::formula_pfp::CompiledPfpSim::compile(&flipper, &order4, 1, "01").orfail()?;
    let t4 = Instant::now();
    let pfp_rel = pfp.run(&Governor::default()).orfail()?;
    println!(
        "  CALC+PFP      : {} rows (no timestamps), {:.2} ms, output {:?}",
        pfp_rel.len(),
        ms(t4),
        pfp.decode_output(&pfp_rel).orfail()?
    );
    println!(
        "  outputs equal : {}",
        sim.decode_output(&rel).orfail()? == d.output
            && pfp.decode_output(&pfp_rel).orfail()? == d.output
    );
    println!(
        "  indirection cost: {:.0}x",
        formula_ms / tiny_direct_ms.max(1e-6)
    );
    Ok(())
}

/// E10 — Theorem 5.1: safe evaluation vs active-domain evaluation.
fn e10() -> Result<(), String> {
    let seq = ThreadPool::sequential();
    header(
        "E10",
        "range-restricted (safe) vs active-domain evaluation of nest",
    );
    println!(
        "{:>3} {:>12} {:>14} {:>14} {:>14}",
        "n", "safe ms", "safe answer", "active ms", "active answer"
    );
    for n in [4usize, 8, 12, 14] {
        let mut u = Universe::new();
        let atoms: Vec<Value> = (0..n)
            .map(|i| Value::Atom(u.intern(&format!("a{i}"))))
            .collect();
        let mut i = Instance::empty(fixtures::pair_schema());
        for k in 0..n {
            i.insert("P", vec![atoms[k].clone(), atoms[k].clone()]);
            i.insert("P", vec![atoms[k].clone(), atoms[(k + 1) % n].clone()]);
        }
        let q = fixtures::nest_query();
        let t0 = Instant::now();
        let safe = safe_eval_pooled(&i, &q, &Governor::default(), &seq).orfail()?;
        let safe_ms = ms(t0);
        let (active_ms, active_len) = {
            let t1 = Instant::now();
            match eval_pooled(&q, &i, &Governor::default(), &seq) {
                Ok(ans) => (format!("{:.2}", ms(t1)), ans.len().to_string()),
                Err(e) => (format!("{:.2}", ms(t1)), short(&e.to_string())),
            }
        };
        println!(
            "{n:>3} {safe_ms:>12.2} {:>14} {active_ms:>14} {active_len:>14}",
            safe.len()
        );
    }
    println!("shape: safe is polynomial in |I|; active-domain doubles per atom (2^n head sets)");
    // classification report
    let report = classify_query(
        &fixtures::pair_schema(),
        &fixtures::nest_query(),
        InputAssumption::Unknown,
    )
    .orfail()?;
    println!("\nclassifier says:\n{report}");
    Ok(())
}

/// E11 — Proposition 5.2's mechanism: sparse height-1 objects indexed by
/// atoms, fixpoint run at the lower height, then decoded.
fn e11() -> Result<(), String> {
    header(
        "E11",
        "Proposition 5.2: sparsity lets set-height be compiled away",
    );
    let su = Type::set(Type::Atom);
    println!(
        "{:>3} {:>14} {:>14} {:>14} {:>8}",
        "n", "nested steps", "encoded steps", "ratio", "equal"
    );
    for n in [3usize, 4, 5, 6] {
        let g = families::nested_path_graph(n);
        // direct: TC over set-typed nodes — the quantifiers range over all
        // 2^n sets, so this dies quickly; report the blowup as data
        let q = fixtures::tc_ifp_query(&su);
        let order = active_order(&g.instance, &q);
        let mut ev = Evaluator::new(&g.instance, order, Governor::default());
        let nested = match ev.query(&q) {
            Ok(ans) => Some(ans),
            Err(e) => {
                println!(
                    "{n:>3} {:>14} (direct nested evaluation refused: {})",
                    "—",
                    short(&e.to_string())
                );
                None
            }
        };
        let nested_steps = ev.steps_used();
        // encoded: index each node object by an atom (the Q_T dictionary of
        // the proof), run TC flat, decode
        let mut nodes: Vec<Value> = Vec::new();
        for row in g.instance.relation("G").iter() {
            for v in row {
                if !nodes.contains(v) {
                    nodes.push(v.clone());
                }
            }
        }
        nodes.sort();
        let mut encoded = Instance::empty(families::flat_graph_schema());
        for row in g.instance.relation("G").iter() {
            let a = nodes.iter().position(|v| v == &row[0]).orfail()?;
            let b = nodes.iter().position(|v| v == &row[1]).orfail()?;
            encoded.insert(
                "G",
                vec![Value::Atom(g.order.at(a)), Value::Atom(g.order.at(b))],
            );
        }
        let qf = fixtures::tc_ifp_query(&Type::Atom);
        let order_f = active_order(&encoded, &qf);
        let mut evf = Evaluator::new(&encoded, order_f, Governor::default());
        let flat = evf.query(&qf).orfail()?;
        let flat_steps = evf.steps_used();
        // decode and compare
        let decoded: no_object::Relation = flat
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| {
                        let Value::Atom(a) = v else { unreachable!() };
                        nodes[g.order.rank(*a)].clone()
                    })
                    .collect()
            })
            .collect();
        match &nested {
            Some(nested) => println!(
                "{n:>3} {nested_steps:>14} {flat_steps:>14} {:>14.1} {:>8}",
                nested_steps as f64 / flat_steps as f64,
                decoded == *nested
            ),
            None => println!(
                "{n:>3} {:>14} {flat_steps:>14} {:>14} {:>8}",
                "> budget", "∞", "n/a"
            ),
        }
    }
    println!(
        "the Q_T encoding of the proof: same answers, quantifiers over n atoms instead of 2^n sets"
    );
    Ok(())
}

/// E12 — density's impact on the cost of one fixed query.
fn e12() -> Result<(), String> {
    header(
        "E12",
        "same CALC_1^1 query on dense vs sparse inputs (Def 4.1)",
    );
    let dominated = |rel: &str| -> Query {
        let su = Type::set(Type::Atom);
        Query::new(
            vec![("X".into(), su.clone())],
            Formula::and([
                Formula::Rel(rel.into(), vec![Term::var("X")]),
                Formula::exists(
                    "Y",
                    su,
                    Formula::and([
                        Formula::Rel(rel.into(), vec![Term::var("Y")]),
                        Formula::Subset(Term::var("X"), Term::var("Y")),
                        Formula::Eq(Term::var("X"), Term::var("Y")).not(),
                    ]),
                ),
            ]),
        )
    };
    println!(
        "{:>3} {:>10} {:>12} {:>14} {:>10} {:>12} {:>14}",
        "n",
        "dense |I|",
        "dense steps",
        "log_|I| steps",
        "sparse |I|",
        "sparse steps",
        "log_|I| steps"
    );
    for n in [6usize, 8, 10] {
        let dense = families::subset_family(n);
        let qd = dominated("R");
        let od = active_order(&dense.instance, &qd);
        let mut evd = Evaluator::new(&dense.instance, od, Governor::default());
        evd.query(&qd).orfail()?;
        let dsteps = evd.steps_used();
        let sparse = families::bounded_enrollment_family(n, 1);
        let qs = dominated("Takes");
        let os = active_order(&sparse.instance, &qs);
        let mut evs = Evaluator::new(&sparse.instance, os, Governor::default());
        evs.query(&qs).orfail()?;
        let ssteps = evs.steps_used();
        let dc = dense.instance.cardinality();
        let sc = sparse.instance.cardinality();
        let exp = |steps: u64, card: usize| (steps as f64).ln() / (card.max(2) as f64).ln();
        println!(
            "{n:>3} {dc:>10} {dsteps:>12} {:>14.2} {sc:>10} {ssteps:>12} {:>14.2}",
            exp(dsteps, dc),
            exp(ssteps, sc)
        );
    }
    println!("shape: the dense exponent stays ~constant (steps polynomial in |I|); the sparse one keeps climbing (super-polynomial in |I|)");
    Ok(())
}

/// E13 — the Section 3 bipartiteness query.
fn e13() -> Result<(), String> {
    header("E13", "Section 3's bipartiteness CALC query");
    for (name, g, expect_nonempty) in [
        ("even cycle C4", families::cycle_graph(4), true),
        ("odd cycle C5", families::cycle_graph(5), false),
        ("even cycle C6", families::cycle_graph(6), true),
        ("path P5", families::path_graph(5), true),
    ] {
        let t0 = Instant::now();
        let ans = eval_pooled(
            &fixtures::bipartite_query(),
            &g.instance,
            &Governor::default(),
            &ThreadPool::sequential(),
        )
        .orfail()?;
        println!(
            "{name:<14} edges={:<3} answer={:<3} ({}) {:.1} ms",
            g.instance.cardinality(),
            ans.len(),
            if ans.is_empty() {
                "not bipartite"
            } else {
                "bipartite: answer = G"
            },
            ms(t0)
        );
        assert_eq!(
            !ans.is_empty(),
            expect_nonempty || g.instance.cardinality() == 0
        );
    }
    Ok(())
}

/// E14 — Example 3.1's three transitive-closure formulations.
fn e14() -> Result<(), String> {
    let seq = ThreadPool::sequential();
    header(
        "E14",
        "Example 3.1: three formulations of transitive closure",
    );
    let su = Type::set(Type::Atom);
    let g = families::nested_path_graph(4);
    // 1: predicate application (CALC_1 + IFP)
    let q1 = fixtures::tc_ifp_query(&su);
    let a1 = eval_pooled(&q1, &g.instance, &Governor::default(), &seq).orfail()?;
    println!("predicate form: {} closure pairs", a1.len());
    // 2: fixpoint as term (CALC_2^2 + IFP)
    let fix = fixtures::tc_fixpoint(&su);
    let pair = Type::tuple(vec![su.clone(), su.clone()]);
    let q2 = Query::new(
        vec![("w".into(), Type::set(pair))],
        Formula::Eq(Term::var("w"), Term::Fix(fix.clone())),
    );
    let a2 = safe_eval_pooled(&g.instance, &q2, &Governor::default(), &seq).orfail()?;
    let row = a2.sorted_rows()[0].clone();
    let Value::Set(s) = &row[0] else {
        return Err("expected a set-valued answer column".to_string());
    };
    println!("term form: single answer, a set of {} pairs", s.len());
    // 3: nodes on a cycle
    let q3 = Query::new(
        vec![("u".into(), su.clone())],
        Formula::exists(
            "v",
            su.clone(),
            Formula::and([
                Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]),
                Formula::Eq(Term::var("u"), Term::var("v")),
            ]),
        ),
    );
    let a3 = eval_pooled(&q3, &g.instance, &Governor::default(), &seq).orfail()?;
    println!(
        "cycle-nodes form on a path: {} nodes (expected 0)",
        a3.len()
    );
    let cyc = {
        let mut i = g.instance.clone();
        let node = |k: usize| Value::set([Value::Atom(g.order.at(k))]);
        i.insert("G", vec![node(3), node(0)]);
        i
    };
    let a3c = eval_pooled(&q3, &cyc, &Governor::default(), &seq).orfail()?;
    println!(
        "cycle-nodes form on the closed cycle: {} nodes (expected 4)",
        a3c.len()
    );
    // parse/print round trips for the concrete syntax of form 1
    let printed = Printer::new().query(&q1);
    println!("concrete syntax: {printed}");
    let mut u = Universe::new();
    let q1_back = parser::parse_query(&printed, &mut u).orfail()?;
    println!("parse(print(q)) == q: {}", q1_back == q1);
    println!(
        "consistency: predicate form and term form agree: {}",
        s.len() == a1.len()
    );
    Ok(())
}

/// E15 — Section 6: on flat inputs the higher-order quantifier costs
/// hyper(1,2); the input's own growth is only quadratic.
fn e15() -> Result<(), String> {
    header(
        "E15",
        "Theorem 6.1's regime: flat inputs, height-1 quantifier",
    );
    // query: does a nonempty edge set exist that is closed under reversal?
    // ∃s:{[U,U]} (nonempty(s) ∧ ∀p (p ∈ s → G(p.1,p.2) ∧ [p.2,p.1] ∈ s))
    let pair = Type::tuple(vec![Type::Atom, Type::Atom]);
    let body = Formula::exists(
        "s",
        Type::set(pair.clone()),
        Formula::and([
            Formula::exists(
                "w",
                pair.clone(),
                Formula::In(Term::var("w"), Term::var("s")),
            ),
            Formula::forall(
                "p",
                pair.clone(),
                Formula::In(Term::var("p"), Term::var("s")).implies(Formula::and([
                    Formula::Rel(
                        "G".into(),
                        vec![Term::var("p").proj(1), Term::var("p").proj(2)],
                    ),
                    Formula::exists(
                        "r",
                        pair.clone(),
                        Formula::and([
                            Formula::In(Term::var("r"), Term::var("s")),
                            Formula::Eq(Term::var("r").proj(1), Term::var("p").proj(2)),
                            Formula::Eq(Term::var("r").proj(2), Term::var("p").proj(1)),
                        ]),
                    ),
                ])),
            ),
        ]),
    );
    println!("{:>3} {:>8} {:>14} {:>12}", "n", "||I||", "steps", "ms");
    for n in [2usize, 3] {
        let g = families::cycle_graph(n);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("x2")]),
                body.clone(),
            ]),
        );
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("x2".into(), Type::Atom)],
            q.body,
        );
        let order = active_order(&g.instance, &q);
        let size = instance_size(&order, &g.instance);
        let mut ev = Evaluator::new(&g.instance, order, Governor::default());
        let t0 = Instant::now();
        let _ = ev.query(&q).orfail()?;
        println!("{n:>3} {size:>8} {:>14} {:>12.1}", ev.steps_used(), ms(t0));
    }
    println!("n=4 needs 2^16 candidate sets per binding and is refused by the tight budget:");
    let g = families::cycle_graph(4);
    let q = Query::new(
        vec![("x".into(), Type::Atom), ("x2".into(), Type::Atom)],
        Formula::and([
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("x2")]),
            body,
        ]),
    );
    match eval_pooled(
        &q,
        &g.instance,
        &Governor::new(Limits::tight()),
        &ThreadPool::sequential(),
    ) {
        Err(e) => println!("  n=4: {e}"),
        Ok(_) => println!("  n=4: unexpectedly finished"),
    }
    println!("shape: steps multiply ~2^(n^2 - (n-1)^2) per extra atom — hyper(1,2) in ||I||, as Theorem 6.1 prices it");
    Ok(())
}

/// E16 — Remark 4.1: per-type density in a multi-sorted database. The
/// VERSO family is dense w.r.t. atoms but sparse w.r.t. sets of atoms —
/// quantify over the former freely, over the latter only with range
/// restriction.
fn e16() -> Result<(), String> {
    header("E16", "Remark 4.1: per-type density (multi-sorted advice)");
    let su = Type::set(Type::Atom);
    for (label, ty) in [("U (atoms)", Type::Atom), ("{U} (sets)", su)] {
        let points: Vec<no_density::TypeMeasurement> = (6..=16)
            .step_by(2)
            .map(|n| no_density::measure_type(&families::verso_family(n, 5).instance, &ty))
            .collect();
        let report = no_density::classify_type(&points);
        println!("VERSO family w.r.t. {label:<12} → {:?}", report.class);
        for m in &points {
            println!(
                "    n={:<3} occurrences={:<5} log2|dom|={:.1}",
                m.atoms, m.occurrences, m.dom_log2
            );
        }
    }
    println!("the multi-sorted case the conclusion leaves open, measured: same");
    println!("database, dense in one sort and sparse in another.");
    Ok(())
}

/// E17 — Section 3's semantics choice, demonstrated: inflationary and
/// stratified Datalog¬ genuinely differ on negation-through-recursion.
fn e17() -> Result<(), String> {
    let seq = ThreadPool::sequential();
    header(
        "E17",
        "inflationary vs stratified Datalog¬ (Section 3's choice)",
    );
    use no_datalog::{eval_pooled, eval_stratified_pooled, DTerm as D, Literal as L, Program};
    let g = families::path_graph(4);
    let mut p = Program::new();
    p.declare("tc", vec![Type::Atom, Type::Atom]);
    p.declare("node", vec![Type::Atom]);
    p.declare("unreach", vec![Type::Atom, Type::Atom]);
    p.rule(
        "node",
        vec![D::var("x")],
        vec![L::Pos("G".into(), vec![D::var("x"), D::var("y")])],
    );
    p.rule(
        "node",
        vec![D::var("y")],
        vec![L::Pos("G".into(), vec![D::var("x"), D::var("y")])],
    );
    p.rule(
        "tc",
        vec![D::var("x"), D::var("y")],
        vec![L::Pos("G".into(), vec![D::var("x"), D::var("y")])],
    );
    p.rule(
        "tc",
        vec![D::var("x"), D::var("y")],
        vec![
            L::Pos("tc".into(), vec![D::var("x"), D::var("z")]),
            L::Pos("G".into(), vec![D::var("z"), D::var("y")]),
        ],
    );
    p.rule(
        "unreach",
        vec![D::var("x"), D::var("y")],
        vec![
            L::Pos("node".into(), vec![D::var("x")]),
            L::Pos("node".into(), vec![D::var("y")]),
            L::Neg("tc".into(), vec![D::var("x"), D::var("y")]),
        ],
    );
    let (inflationary, _) = eval_pooled(
        &p,
        &g.instance,
        no_datalog::Strategy::Naive,
        &Governor::default(),
        &seq,
    )
    .orfail()?;
    let stratified =
        eval_stratified_pooled(&p, &g.instance, &Governor::default(), &seq).orfail()?;
    println!("path a0→a1→a2→a3, tc = {} pairs", inflationary["tc"].len());
    println!(
        "unreach: inflationary = {} pairs, stratified = {} pairs",
        inflationary["unreach"].len(),
        stratified["unreach"].len()
    );
    println!(
        "stratified ⊆ inflationary: {}",
        stratified["unreach"]
            .iter()
            .all(|r| inflationary["unreach"].contains(r))
    );
    println!("the gap is every pair whose reachability is discovered late —");
    println!("inflationary negation (the paper's choice, matching IFP) keeps them.");
    Ok(())
}
