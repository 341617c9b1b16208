//! The `CALC + PFP` variant of the machine simulation (Theorem 4.1(3)).
//!
//! The paper notes that the `PSPACE` direction "simplifies the simulation:
//! only the tuples corresponding to the *current* configuration of M are
//! kept in `R_M`, so no timestamping is required". This module implements
//! exactly that: a `PFP` fixpoint over rows `[⃗i, x, y]` — cell index,
//! symbol, head/state marker — whose iteration *replaces* the
//! configuration each round:
//!
//! ```text
//! φ(S)(i,x,y) =  (S = ∅            ∧ Init(i,x,y))        -- bootstrap
//!              ∨ (S ≠ ∅ ∧ halted(S) ∧ S(i,x,y))          -- fixpoint
//!              ∨ (S ≠ ∅ ∧ step cases (a)–(c) over S)     -- one move
//! ```
//!
//! Because `PFP` is non-inflationary the old configuration vanishes each
//! round — the space saving over the `IFP` construction is `R_M` row
//! count ÷ run length, measured in the tests.

use crate::formula::{index_value, lt_instance, tuple_type, value_index, width_for};
use crate::machine::{Machine, Move, State};
use crate::sim::SimError;
use no_core::ast::{FixOp, Fixpoint, Formula, Term};
use no_core::error::EvalError;
use no_core::eval::Evaluator;
use no_core::orders::{LtBase, OrderSynth};
use no_object::{AtomOrder, Governor, Relation};
use std::sync::Arc;

/// A compiled `PFP` machine simulation.
pub struct CompiledPfpSim {
    /// The `PFP` expression denoting the evolving configuration.
    pub fixpoint: Arc<Fixpoint>,
    /// Cell-index width (`n^m` cells).
    pub m: usize,
    /// The symbol table.
    pub alphabet: Vec<char>,
    /// Number of machine states.
    pub state_count: usize,
    order: AtomOrder,
    blank: char,
}

impl CompiledPfpSim {
    /// Compile the `PFP` simulation of `machine` on `input` with cell-index
    /// width `m`.
    pub fn compile(
        machine: &Machine,
        order: &AtomOrder,
        m: usize,
        input: &str,
    ) -> Result<CompiledPfpSim, SimError> {
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
        let i_ty = tuple_type(m);
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
        let s_row = |i: Term, x: Term, y: Term| Formula::Rel("S".into(), vec![i, x, y]);

        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));

        // S = ∅ : ¬∃i'∃x'∃y' S(i',x',y')
        let empty = Formula::exists(
            "ei",
            i_ty.clone(),
            Formula::exists(
                "ex",
                s_ty.clone(),
                Formula::exists(
                    "ey",
                    q_ty.clone(),
                    s_row(Term::var("ei"), Term::var("ex"), Term::var("ey")),
                ),
            ),
        )
        .not();

        // Init(i, x, y): the initial configuration
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
            cell_cases.push(Formula::and([
                Formula::Eq(Term::var("i"), pos_const(0)),
                Formula::Eq(Term::var("x"), sym_const(machine.blank())),
                Formula::Eq(Term::var("y"), state_const(Some(machine.start()))),
            ]));
        }
        let last = if input.is_empty() { 0 } else { input.len() - 1 };
        cell_cases.push(Formula::and([
            synth.less(&i_ty, pos_const(last), Term::var("i")),
            Formula::Eq(Term::var("x"), sym_const(machine.blank())),
            Formula::Eq(Term::var("y"), state_const(None)),
        ]));
        let init = Formula::and([empty.clone(), Formula::or(cell_cases)]);

        // halted(S): the head sits on a cell in a halting state
        let halting: Vec<State> = (0..state_count as u16)
            .map(State)
            .filter(|s| machine.is_halting(*s))
            .collect();
        let halted = Formula::or(
            halting
                .iter()
                .map(|h| {
                    Formula::exists(
                        format!("h{}", h.0),
                        i_ty.clone(),
                        Formula::exists(
                            format!("hx{}", h.0),
                            s_ty.clone(),
                            s_row(
                                Term::var(format!("h{}", h.0)),
                                Term::var(format!("hx{}", h.0)),
                                state_const(Some(*h)),
                            ),
                        ),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let keep = Formula::and([
            halted.clone(),
            s_row(Term::var("i"), Term::var("x"), Term::var("y")),
        ]);

        // step: one disjunct per instruction, reading from S directly
        let mut instr_cases: Vec<Formula> = Vec::new();
        for ((q0, c), action) in machine.transitions() {
            let guard = s_row(Term::var("j"), sym_const(c), state_const(Some(q0)));
            let case_a = |synth: &mut OrderSynth, excl_succ: bool, excl_pred: bool| -> Formula {
                let mut parts = vec![
                    Formula::Eq(Term::var("i"), Term::var("j")).not(),
                    s_row(Term::var("i"), Term::var("x"), Term::var("y")),
                ];
                if excl_succ {
                    parts.push(
                        synth
                            .is_successor(&i_ty, Term::var("j"), Term::var("i"))
                            .not(),
                    );
                }
                if excl_pred {
                    parts.push(
                        synth
                            .is_successor(&i_ty, Term::var("i"), Term::var("j"))
                            .not(),
                    );
                }
                Formula::and(parts)
            };
            let body = match action.mv {
                Move::Stay => Formula::or([
                    case_a(&mut synth, false, false),
                    Formula::and([
                        Formula::Eq(Term::var("i"), Term::var("j")),
                        Formula::Eq(Term::var("x"), sym_const(action.write)),
                        Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                    ]),
                ]),
                Move::Right => Formula::or([
                    case_a(&mut synth, true, false),
                    Formula::and([
                        Formula::Eq(Term::var("i"), Term::var("j")),
                        Formula::Eq(Term::var("x"), sym_const(action.write)),
                        Formula::Eq(Term::var("y"), state_const(None)),
                    ]),
                    Formula::and([
                        synth.is_successor(&i_ty, Term::var("j"), Term::var("i")),
                        s_row(Term::var("i"), Term::var("x"), state_const(None)),
                        Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                    ]),
                ]),
                Move::Left => {
                    let at_edge = Formula::Eq(Term::var("j"), pos_const(0));
                    Formula::or([
                        Formula::and([
                            at_edge.clone().not(),
                            Formula::or([
                                case_a(&mut synth, false, true),
                                Formula::and([
                                    Formula::Eq(Term::var("i"), Term::var("j")),
                                    Formula::Eq(Term::var("x"), sym_const(action.write)),
                                    Formula::Eq(Term::var("y"), state_const(None)),
                                ]),
                                Formula::and([
                                    synth.is_successor(&i_ty, Term::var("i"), Term::var("j")),
                                    s_row(Term::var("i"), Term::var("x"), state_const(None)),
                                    Formula::Eq(Term::var("y"), state_const(Some(action.next))),
                                ]),
                            ]),
                        ]),
                        Formula::and([
                            at_edge,
                            Formula::or([
                                case_a(&mut synth, false, false),
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
        let step = Formula::and([
            empty.not(),
            halted.not(),
            Formula::exists("j", i_ty.clone(), Formula::or(instr_cases)),
        ]);

        let fixpoint = Arc::new(Fixpoint {
            op: FixOp::Pfp,
            rel: "S".into(),
            vars: vec![("i".into(), i_ty), ("x".into(), s_ty), ("y".into(), q_ty)],
            body: Box::new(Formula::or([init, keep, step])),
        });
        Ok(CompiledPfpSim {
            fixpoint,
            m,
            alphabet,
            state_count,
            order: order.clone(),
            blank: machine.blank(),
        })
    }

    /// Evaluate the `PFP` fixpoint. The result holds exactly the halting
    /// configuration (`n^m` rows) — the space saving over IFP.
    pub fn run(&self, governor: &Governor) -> Result<Relation, EvalError> {
        let instance = lt_instance(&self.order);
        let mut ev = Evaluator::new(&instance, self.order.clone(), governor.clone());
        let rel = ev.eval_fixpoint(&self.fixpoint)?;
        Ok(rel.as_ref().clone())
    }

    /// Decode the tape word from a configuration relation.
    pub fn decode_output(&self, rel: &Relation) -> Option<String> {
        let capacity = self.order.len().pow(self.m as u32);
        let mut cells = vec![None::<char>; capacity];
        for row in rel.iter() {
            let i = value_index(&self.order, &row[0])?;
            let s = value_index(&self.order, &row[1])?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CompiledSim;
    use no_object::Universe;

    fn order_n(n: usize) -> AtomOrder {
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let u = Universe::with_names(names.iter().map(String::as_str));
        AtomOrder::identity(&u)
    }

    fn flipper() -> Machine {
        let mut b = Machine::builder('_');
        b.state("scan")
            .rule("scan", '0', '1', Move::Right, "scan")
            .rule("scan", '1', '0', Move::Right, "scan")
            .rule("scan", '_', '_', Move::Stay, "done")
            .halting("done");
        b.build().unwrap()
    }

    #[test]
    fn pfp_simulation_matches_direct_machine() {
        let machine = flipper();
        let order = order_n(4);
        for input in ["", "0", "10", "010"] {
            let sim = CompiledPfpSim::compile(&machine, &order, 1, input).unwrap();
            let rel = sim.run(&Governor::default()).unwrap();
            let direct = machine.run(input, 100).unwrap();
            assert_eq!(
                sim.decode_output(&rel).as_deref(),
                Some(direct.output.as_str()),
                "input {input:?}"
            );
        }
    }

    #[test]
    fn pfp_keeps_only_the_current_configuration() {
        // the paper's point: no timestamps — |R_M| = cells, not cells × time
        let machine = flipper();
        let order = order_n(4);
        // "01" halts in 3 moves: 4 configurations fit the 4 timestamps
        let input = "01";
        let pfp = CompiledPfpSim::compile(&machine, &order, 1, input).unwrap();
        let pfp_rel = pfp.run(&Governor::default()).unwrap();
        assert_eq!(pfp_rel.len(), 4, "one row per cell");
        let ifp = CompiledSim::compile(&machine, &order, 1, input).unwrap();
        let ifp_rel = ifp.run(&Governor::default()).unwrap();
        assert!(ifp.halted(&ifp_rel));
        // IFP keeps every timestamped configuration: 4 cells × 4 timestamps
        assert_eq!(ifp_rel.len(), 4 * 4);
    }

    #[test]
    fn pfp_simulation_with_left_moves() {
        let mut b = Machine::builder('_');
        b.state("s0")
            .rule("s0", '0', 'a', Move::Right, "s1")
            .rule("s1", '0', 'b', Move::Left, "s2")
            .rule("s2", 'a', 'c', Move::Stay, "done")
            .halting("done");
        let machine = b.build().unwrap();
        let order = order_n(4);
        let sim = CompiledPfpSim::compile(&machine, &order, 1, "00").unwrap();
        let rel = sim.run(&Governor::default()).unwrap();
        assert_eq!(sim.decode_output(&rel).as_deref(), Some("cb"));
    }

    #[test]
    fn tape_bound_checked() {
        let order = order_n(2);
        assert!(matches!(
            CompiledPfpSim::compile(&flipper(), &order, 1, "000"),
            Err(SimError::TapeTooSmall { .. })
        ));
    }
}
