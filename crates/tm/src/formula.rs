//! The `CALC_i^k + IFP` formula of Theorem 4.1's proof, generated and
//! executed.
//!
//! The proof simulates a machine `M` by a fixpoint relation
//! `R_M(⃗t, ⃗i, x, y)` whose rows are produced by iterating a formula with
//! two disjuncts: the *initial configuration* (phase †, built from
//! `enc(I)` as in Lemma 4.4) and the *step* (phase ‡, one disjunct per
//! machine instruction implementing the cases (a)–(c)). This module
//! constructs that formula as an ordinary [`no_core::Formula`] value —
//! printable, parseable, type-checkable — and executes it with the
//! generic CALC evaluator, no machine-specific code in the loop.
//!
//! Representation choices (all from the proof):
//!
//! * timestamps and cell indices are `m`-tuples of atoms, ordered by the
//!   induced lexicographic order; successor is *definable* and synthesized
//!   by [`no_core::orders::OrderSynth`] from a base order relation `ltU`
//!   (the `L + <_U` setting of Theorem 5.2 — postulating the order instead
//!   adds one `∃<_U:{[U,U]}` wrapper, Theorem 4.1);
//! * tape symbols and machine states are indexed into fixed tables and
//!   encoded as width-`sw`/`qw` atom tuples, with one extra state slot for
//!   the "no head here" marker;
//! * the run is inflationary: every iteration of `IFP` adds the next
//!   timestamped configuration, old ones are never touched.
//!
//! Executing this formula is *hyperexponentially* wasteful by design —
//! that is the paper's point about expressibility, not efficiency — so
//! tests and benches drive it on tiny machines and inputs, and check it
//! cell-for-cell against the semantic simulation in [`crate::sim`].

use crate::machine::{Machine, Move, State};
use crate::sim::SimError;
use no_core::ast::{FixOp, Fixpoint, Formula, Term};
use no_core::error::EvalError;
use no_core::eval::Evaluator;
use no_core::orders::{LtBase, OrderSynth};
use no_object::{AtomOrder, Governor, Instance, Relation, RelationSchema, Schema, Type, Value};
use std::sync::Arc;

/// A compiled machine simulation: the fixpoint formula plus the encoding
/// tables needed to build inputs and decode outputs.
pub struct CompiledSim {
    /// The `IFP` expression denoting `R_M`.
    pub fixpoint: Arc<Fixpoint>,
    /// Index width for timestamps/cells (`n^m` of each).
    pub m: usize,
    /// Symbol-tuple width.
    pub sym_width: usize,
    /// State-tuple width.
    pub state_width: usize,
    /// The symbol table (index = encoding).
    pub alphabet: Vec<char>,
    /// Number of machine states (the "no head" marker is index
    /// `state_count`).
    pub state_count: usize,
    order: AtomOrder,
    blank: char,
    halting: Vec<State>,
}

/// The schema a compiled simulation evaluates against: just the base
/// order relation `ltU[U, U]`.
pub fn sim_schema() -> Schema {
    Schema::from_relations([RelationSchema::new("ltU", vec![Type::Atom, Type::Atom])])
}

/// An instance of [`sim_schema`] holding the strict order induced by the
/// atom enumeration.
pub fn lt_instance(order: &AtomOrder) -> Instance {
    let mut i = Instance::empty(sim_schema());
    for (ra, a) in order.iter().enumerate() {
        for (rb, b) in order.iter().enumerate() {
            if ra < rb {
                i.insert("ltU", vec![Value::Atom(a), Value::Atom(b)]);
            }
        }
    }
    i
}

pub(crate) fn width_for(n: usize, count: usize) -> usize {
    let mut w = 1;
    let mut cap = n;
    while cap < count {
        w += 1;
        cap *= n;
    }
    w
}

pub(crate) fn tuple_type(w: usize) -> Type {
    Type::tuple(vec![Type::Atom; w])
}

/// Encode `idx` as a width-`w` atom tuple, mixed radix base `n`, most
/// significant first — consistent with the induced order on `[U;w]`.
pub(crate) fn index_value(order: &AtomOrder, w: usize, mut idx: usize) -> Value {
    let n = order.len();
    let mut digits = vec![0usize; w];
    for d in (0..w).rev() {
        digits[d] = idx % n;
        idx /= n;
    }
    Value::Tuple(
        digits
            .into_iter()
            .map(|d| Value::Atom(order.at(d)))
            .collect(),
    )
}

/// Decode a width-`w` atom tuple back to its index.
pub(crate) fn value_index(order: &AtomOrder, v: &Value) -> Option<usize> {
    let Value::Tuple(vs) = v else { return None };
    let n = order.len();
    let mut idx = 0usize;
    for c in vs {
        let Value::Atom(a) = c else { return None };
        idx = idx * n + order.rank(*a);
    }
    Some(idx)
}

impl CompiledSim {
    /// Compile the `CALC+IFP` simulation of `machine` on the tape word
    /// `input` (typically `enc(I)`), with index width `m` over the atoms
    /// of `order`.
    pub fn compile(
        machine: &Machine,
        order: &AtomOrder,
        m: usize,
        input: &str,
    ) -> Result<CompiledSim, SimError> {
        let n = order.len();
        let capacity = n.pow(m as u32);
        if input.len() >= capacity {
            return Err(SimError::TapeTooSmall {
                capacity,
                needed: input.len() + 1,
            });
        }
        let alphabet = machine.alphabet();
        let state_count = machine.state_count();
        let sym_width = width_for(n, alphabet.len());
        let state_width = width_for(n, state_count + 1);

        let t_ty = tuple_type(m);
        let s_ty = tuple_type(sym_width);
        let q_ty = tuple_type(state_width);

        let sym_const = |c: char| -> Term {
            let idx = alphabet
                .iter()
                .position(|&a| a == c)
                .expect("symbol in alphabet");
            Term::Const(index_value(order, sym_width, idx))
        };
        let state_const = |s: Option<State>| -> Term {
            let idx = s.map_or(state_count, |st| st.0 as usize);
            Term::Const(index_value(order, state_width, idx))
        };
        let pos_const = |p: usize| -> Term { Term::Const(index_value(order, m, p)) };

        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));

        // ---- Init: the initial configuration at timestamp 0 (phase †) ----
        let mut cell_cases: Vec<Formula> = Vec::new();
        for (p, c) in input.chars().enumerate() {
            cell_cases.push(Formula::and([
                Formula::Eq(Term::var("i"), pos_const(p)),
                Formula::Eq(Term::var("x"), sym_const(c)),
                Formula::Eq(
                    Term::var("y"),
                    state_const(if p == 0 { Some(machine.start()) } else { None }),
                ),
            ]));
        }
        if input.is_empty() {
            // head on a blank first cell
            cell_cases.push(Formula::and([
                Formula::Eq(Term::var("i"), pos_const(0)),
                Formula::Eq(Term::var("x"), sym_const(machine.blank())),
                Formula::Eq(Term::var("y"), state_const(Some(machine.start()))),
            ]));
        }
        // padding: every cell beyond the input is blank with no head
        let last = if input.is_empty() { 0 } else { input.len() - 1 };
        cell_cases.push(Formula::and([
            synth.less(&t_ty, pos_const(last), Term::var("i")),
            Formula::Eq(Term::var("x"), sym_const(machine.blank())),
            Formula::Eq(Term::var("y"), state_const(None)),
        ]));
        let init = Formula::and([
            Formula::Eq(Term::var("t"), pos_const(0)),
            Formula::or(cell_cases),
        ]);

        // ---- Step: one disjunct per instruction (phase ‡) ----
        // ∃tp (succ(tp, t) ∧ ∃j ⋁_instr (S(tp, j, c, q0) ∧ cases (a)–(c))).
        // The read symbol and source state of each instruction are
        // *constants*, so they are inlined rather than quantified — the
        // paper's "one such formula is needed for each instruction of M".
        let s_row = |t: Term, i: Term, x: Term, y: Term| Formula::Rel("S".into(), vec![t, i, x, y]);
        let mut instr_cases: Vec<Formula> = Vec::new();
        for ((q0, c), action) in machine.transitions() {
            let guard = s_row(
                Term::var("tp"),
                Term::var("j"),
                sym_const(c),
                state_const(Some(q0)),
            );
            // For each move direction, relate the new row (t, i, x, y) to
            // the old configuration at tp with head at j.
            let case_a_bound = |synth: &mut OrderSynth, exclude_succ: bool, exclude_pred: bool| {
                // cells untouched by the move: i ≠ j and not the target
                let mut parts = vec![
                    Formula::Eq(Term::var("i"), Term::var("j")).not(),
                    s_row(
                        Term::var("tp"),
                        Term::var("i"),
                        Term::var("x"),
                        Term::var("y"),
                    ),
                ];
                if exclude_succ {
                    parts.push(
                        synth
                            .is_successor(&t_ty, Term::var("j"), Term::var("i"))
                            .not(),
                    );
                }
                if exclude_pred {
                    parts.push(
                        synth
                            .is_successor(&t_ty, Term::var("i"), Term::var("j"))
                            .not(),
                    );
                }
                Formula::and(parts)
            };
            let body = match action.mv {
                Move::Stay => {
                    // (a) copy others; (b,c) head cell: new symbol, stays
                    Formula::or([
                        case_a_bound(&mut synth, false, false),
                        Formula::and([
                            Formula::Eq(Term::var("i"), Term::var("j")),
                            Formula::Eq(Term::var("x"), sym_const(action.write)),
                            Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                        ]),
                    ])
                }
                Move::Right => {
                    Formula::or([
                        // (a)
                        case_a_bound(&mut synth, true, false),
                        // (b) the head cell is rewritten and released
                        Formula::and([
                            Formula::Eq(Term::var("i"), Term::var("j")),
                            Formula::Eq(Term::var("x"), sym_const(action.write)),
                            Formula::Eq(Term::var("y"), state_const(None)),
                        ]),
                        // (c) the successor cell keeps its symbol, gains the head
                        Formula::and([
                            synth.is_successor(&t_ty, Term::var("j"), Term::var("i")),
                            s_row(
                                Term::var("tp"),
                                Term::var("i"),
                                Term::var("x"),
                                state_const(None),
                            ),
                            Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                        ]),
                    ])
                }
                Move::Left => {
                    // left move at the left edge is a stay — both cases
                    let at_edge = Formula::Eq(Term::var("j"), pos_const(0));
                    Formula::or([
                        // interior: (a) copy all but j and pred(j)
                        Formula::and([
                            at_edge.clone().not(),
                            Formula::or([
                                case_a_bound(&mut synth, false, true),
                                Formula::and([
                                    Formula::Eq(Term::var("i"), Term::var("j")),
                                    Formula::Eq(Term::var("x"), sym_const(action.write)),
                                    Formula::Eq(Term::var("y"), state_const(None)),
                                ]),
                                Formula::and([
                                    synth.is_successor(&t_ty, Term::var("i"), Term::var("j")),
                                    s_row(
                                        Term::var("tp"),
                                        Term::var("i"),
                                        Term::var("x"),
                                        state_const(None),
                                    ),
                                    Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                                ]),
                            ]),
                        ]),
                        // edge: behaves like a stay
                        Formula::and([
                            at_edge,
                            Formula::or([
                                case_a_bound(&mut synth, false, false),
                                Formula::and([
                                    Formula::Eq(Term::var("i"), Term::var("j")),
                                    Formula::Eq(Term::var("x"), sym_const(action.write)),
                                    Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                                ]),
                            ]),
                        ]),
                    ])
                }
            };
            instr_cases.push(Formula::and([guard, body]));
        }
        let step = Formula::exists(
            "tp",
            t_ty.clone(),
            Formula::and([
                synth.is_successor(&t_ty, Term::var("tp"), Term::var("t")),
                Formula::exists("j", t_ty.clone(), Formula::or(instr_cases)),
            ]),
        );

        let fixpoint = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![
                ("t".into(), t_ty.clone()),
                ("i".into(), t_ty),
                ("x".into(), s_ty),
                ("y".into(), q_ty),
            ],
            body: Box::new(Formula::or([init, step])),
        });
        Ok(CompiledSim {
            fixpoint,
            m,
            sym_width,
            state_width,
            alphabet,
            state_count,
            order: order.clone(),
            blank: machine.blank(),
            halting: (0..machine.state_count() as u16)
                .map(State)
                .filter(|s| machine.is_halting(*s))
                .collect(),
        })
    }

    /// Evaluate the fixpoint with the generic CALC evaluator over the
    /// order instance. Returns the full `R_M` relation.
    ///
    /// If the machine needs more than `n^m` moves the iteration runs out
    /// of timestamps and converges on a non-halting final configuration —
    /// check [`CompiledSim::halted`] before trusting
    /// [`CompiledSim::decode_output`].
    pub fn run(&self, governor: &Governor) -> Result<Relation, EvalError> {
        let instance = lt_instance(&self.order);
        let mut ev = Evaluator::new(&instance, self.order.clone(), governor.clone());
        let rel = ev.eval_fixpoint(&self.fixpoint)?;
        Ok(rel.as_ref().clone())
    }

    /// Decode the tape word of timestamp `t` from an `R_M` relation.
    pub fn decode_slice(&self, rel: &Relation, t: usize) -> Option<String> {
        let want_t = index_value(&self.order, self.m, t);
        let capacity = self.order.len().pow(self.m as u32);
        let mut cells = vec![None::<char>; capacity];
        for row in rel.iter() {
            if row[0] != want_t {
                continue;
            }
            let i = value_index(&self.order, &row[1])?;
            let s = value_index(&self.order, &row[2])?;
            cells[i] = Some(*self.alphabet.get(s)?);
        }
        if cells.iter().any(Option::is_none) {
            return None;
        }
        let mut out: String = cells.into_iter().map(|c| c.expect("checked")).collect();
        while out.ends_with(self.blank) {
            out.pop();
        }
        Some(out)
    }

    /// The largest timestamp present in the relation.
    pub fn last_timestamp(&self, rel: &Relation) -> usize {
        rel.iter()
            .filter_map(|row| value_index(&self.order, &row[0]))
            .max()
            .unwrap_or(0)
    }

    /// Decode the final output: the tape of the last timestamp, which is a
    /// halting configuration when the run fit in the index space.
    pub fn decode_output(&self, rel: &Relation) -> Option<String> {
        self.decode_slice(rel, self.last_timestamp(rel))
    }

    /// The head state at timestamp `t`, if a head marker is present.
    pub fn state_at(&self, rel: &Relation, t: usize) -> Option<usize> {
        let want_t = index_value(&self.order, self.m, t);
        for row in rel.iter() {
            if row[0] == want_t {
                let s = value_index(&self.order, &row[3])?;
                if s < self.state_count {
                    return Some(s);
                }
            }
        }
        None
    }

    /// Whether the relation's final configuration is halting.
    pub fn halted(&self, rel: &Relation) -> bool {
        match self.state_at(rel, self.last_timestamp(rel)) {
            Some(s) => self.halting.iter().any(|h| h.0 as usize == s),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Move as M;
    use crate::sim::RelationalRun;
    use no_object::Universe;

    fn order_n(n: usize) -> AtomOrder {
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let u = Universe::with_names(names.iter().map(String::as_str));
        AtomOrder::identity(&u)
    }

    /// The 2-state flipper: 3 symbols, 2 states — fits width-1 tables
    /// over 4 atoms.
    fn flipper() -> Machine {
        let mut b = Machine::builder('_');
        b.state("scan")
            .rule("scan", '0', '1', M::Right, "scan")
            .rule("scan", '1', '0', M::Right, "scan")
            .rule("scan", '_', '_', M::Stay, "done")
            .halting("done");
        b.build().unwrap()
    }

    #[test]
    fn formula_typechecks_in_calc() {
        let order = order_n(4);
        let m = flipper();
        let sim = CompiledSim::compile(&m, &order, 1, "01").unwrap();
        let f = Formula::FixApp(
            Arc::clone(&sim.fixpoint),
            vec![
                Term::var("a"),
                Term::var("b"),
                Term::var("c"),
                Term::var("d"),
            ],
        );
        let t1 = tuple_type(1);
        let checked = no_core::typeck::check(
            &sim_schema(),
            &[
                ("a".into(), t1.clone()),
                ("b".into(), t1.clone()),
                ("c".into(), t1.clone()),
                ("d".into(), t1),
            ],
            &f,
        )
        .unwrap();
        // tuples of atoms only: set height 0 at width max(m, sw, qw)=1...
        // plus the binary ltU columns; stays within <1,2>
        assert!(checked.is_calc_ik(1, 2), "ik = {:?}", checked.ik());
    }

    #[test]
    fn formula_run_matches_semantic_simulation() {
        let order = order_n(4);
        let machine = flipper();
        let input = "01";
        let sim = CompiledSim::compile(&machine, &order, 1, input).unwrap();
        let rel = sim.run(&Governor::default()).unwrap();
        // semantic baseline
        let mut baseline = RelationalRun::new(&machine, &order, 1, input).unwrap();
        baseline.run_to_halt().unwrap();
        assert!(sim.halted(&rel));
        assert_eq!(sim.last_timestamp(&rel) + 1, baseline.history.len());
        for (t, slice) in baseline.history.iter().enumerate() {
            let decoded = sim.decode_slice(&rel, t).expect("complete slice");
            let expected: String = {
                let mut s: String = slice.iter().map(|c| c.symbol).collect();
                while s.ends_with('_') {
                    s.pop();
                }
                s
            };
            assert_eq!(decoded, expected, "timestamp {t}");
        }
        assert_eq!(sim.decode_output(&rel).unwrap(), "10");
    }

    #[test]
    fn formula_run_direct_machine_agreement() {
        // n = 5 atoms: 5 cells and 5 timestamps — enough for every input
        // here to reach its halting configuration
        let order = order_n(5);
        let machine = flipper();
        for input in ["", "0", "1", "010"] {
            let sim = CompiledSim::compile(&machine, &order, 1, input).unwrap();
            let rel = sim.run(&Governor::default()).unwrap();
            let direct = machine.run(input, 100).unwrap();
            assert!(sim.halted(&rel), "input {input:?} must reach a halt");
            assert_eq!(
                sim.decode_output(&rel).unwrap(),
                direct.output,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn left_move_machine_simulates() {
        // write a mark, go right, come back left, halt — exercises the
        // Left-move generation including the predecessor logic
        let mut b = Machine::builder('_');
        b.state("s0")
            .rule("s0", '0', 'a', M::Right, "s1")
            .rule("s1", '0', 'b', M::Left, "s2")
            .rule("s2", 'a', 'c', M::Stay, "done")
            .halting("done");
        let machine = b.build().unwrap();
        let order = order_n(4);
        let sim = CompiledSim::compile(&machine, &order, 1, "00").unwrap();
        let rel = sim.run(&Governor::default()).unwrap();
        let direct = machine.run("00", 100).unwrap();
        assert_eq!(direct.output, "cb");
        assert_eq!(sim.decode_output(&rel).unwrap(), "cb");
    }

    #[test]
    fn compile_rejects_overfull_tape() {
        let order = order_n(2);
        assert!(matches!(
            CompiledSim::compile(&flipper(), &order, 1, "010"),
            Err(SimError::TapeTooSmall { .. })
        ));
    }

    #[test]
    fn formula_prints_and_reparses() {
        let order = order_n(4);
        let sim = CompiledSim::compile(&flipper(), &order, 1, "0").unwrap();
        let f = Formula::Eq(Term::var("w"), Term::Fix(Arc::clone(&sim.fixpoint)));
        let printed = no_core::print::Printer::new().formula(&f);
        // the printer emits '#k' atom literals; pre-seed a universe so the
        // parser interns name "k" back to atom id k
        let mut u = Universe::with_names(["0", "1", "2", "3"]);
        let back = no_core::parser::parse_formula(&printed, &mut u).unwrap();
        let reprinted = no_core::print::Printer::new().formula(&back);
        assert_eq!(printed, reprinted);
    }
}
