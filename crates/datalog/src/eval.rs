//! Inflationary evaluation of Datalog¬ programs, naive and semi-naive.
//!
//! The inflationary semantics (`inf-Datalog¬` in Section 3) iterates the
//! immediate-consequence operator against the *current* database and
//! accumulates: `J_i = J_{i−1} ∪ T(J_{i−1})`. Negation is evaluated
//! against the current state, so no stratification is required and the
//! iteration always converges (facts only accumulate).
//!
//! Semi-naive evaluation exploits a monotonicity fact specific to the
//! inflationary semantics: relations only grow, so a rule body that newly
//! becomes satisfiable must use a fact derived in the previous round in a
//! *positive* literal. Each round therefore only joins rule bodies with at
//! least one delta-positive literal (after the first full round). The
//! `naive_equals_seminaive` tests check the equivalence, and benchmark
//! `datalog_seminaive` measures the speedup (a design-choice ablation from
//! DESIGN.md §6).
//!
//! The join loops run over hash-consed rows. Stored (EDB) relations are
//! read straight from the instance's cached id tables
//! ([`Instance::id_table`]), with no per-evaluation interning; constants,
//! the IDB and the deltas live in a per-evaluation overlay on the
//! instance's arena ([`Instance::overlay`]) as [`IdRelation`]s, and
//! unification binds [`ValueId`]s — so fact dedup and (not-)membership
//! tests cost O(arity) id compares regardless of value nesting. Results
//! resolve back to [`Relation`]s at the boundary.
//!
//! Positive body literals are *index-probed*: per rule evaluation, the
//! first literal argument whose value is already known when the literal
//! is reached (a constant, or a variable bound by an earlier literal)
//! keys the probe, and only the matching rows are unified. On a stored
//! relation keyed by its first column the matching rows are one range of
//! the table's canonical order, found by binary search; any other key
//! groups row positions (stored) or rows (IDB, delta) in a hash index
//! built lazily for the rule evaluation. Under semi-naive evaluation this
//! is the `HashJoin(probe=Δ)` shape `:explain` reports: each delta row's
//! bindings probe the later body literals. Probing is an iteration-order
//! optimization only — the rows it skips would have failed the same id
//! compare inside the unification loop *without consuming fuel* — so
//! derived facts, [`EvalStats::joins`], and step accounting are
//! bit-for-bit identical to the full-scan engine.

use crate::program::{DTerm, Literal, Program, ProgramError, Rule};
use minipool::ThreadPool;
use no_object::intern::{IdRelation, Interner, ValueId};
use no_object::{ColumnTable, Governor, Instance, Relation};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The computed IDB: relation name → facts.
pub type Idb = BTreeMap<String, Relation>;

/// The interned IDB used internally during evaluation.
pub(crate) type IdbI = BTreeMap<String, IdRelation>;

/// Evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds until convergence.
    pub rounds: usize,
    /// Total facts derived.
    pub facts: usize,
    /// Rule-body join attempts (work measure).
    pub joins: u64,
}

/// Evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Re-evaluate every rule against the full database each round.
    Naive,
    /// Only evaluate rules with a delta-positive literal after round one.
    SemiNaive,
}

/// Evaluate `program` on `instance` with inflationary semantics, under a
/// fresh default [`Governor`].
pub fn eval(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
) -> Result<(Idb, EvalStats), ProgramError> {
    eval_governed(program, instance, strategy, &Governor::default())
}

/// Evaluate `program` on `instance` with inflationary semantics under an
/// existing [`Governor`]: every rule-body join attempt costs one unit of
/// step fuel, every derived fact is charged against the memory budget, and
/// each fixpoint round is checked against the iteration cap.
pub fn eval_governed(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
    governor: &Governor,
) -> Result<(Idb, EvalStats), ProgramError> {
    eval_pooled(
        program,
        instance,
        strategy,
        governor,
        &ThreadPool::sequential(),
    )
}

/// A rule task's view of the delta: which body position (if any) is pinned
/// to last round's delta, and the rows it is pinned to. Chunked tasks own
/// their slice of the delta; unchunked tasks borrow the whole relation.
enum Pin<'r> {
    None,
    Borrowed(usize, &'r IdRelation),
    Owned(usize, IdRelation),
}

impl Pin<'_> {
    fn get(&self) -> Option<(usize, &IdRelation)> {
        match self {
            Pin::None => None,
            Pin::Borrowed(pos, rel) => Some((*pos, rel)),
            Pin::Owned(pos, rel) => Some((*pos, rel)),
        }
    }
}

/// Split `rel` into at most `parts` non-empty relations covering its rows.
fn partition_rows(rel: &IdRelation, parts: usize) -> Vec<IdRelation> {
    let n = parts.clamp(1, rel.len().max(1));
    let mut chunks = vec![IdRelation::new(); n];
    for (i, row) in rel.iter().enumerate() {
        chunks[i % n].insert(row.to_vec().into_boxed_slice());
    }
    chunks
}

/// The relations rule bodies read besides the IDB being computed — the
/// instance's stored relations as its cached id tables, and relations
/// frozen by earlier strata — plus the overlay every other value of the
/// evaluation is interned into.
pub(crate) struct Edb {
    stored: HashMap<String, Arc<ColumnTable>>,
    /// Finished lower strata (stratified evaluation), read like stored
    /// relations.
    pub(crate) frozen: IdbI,
    int: Interner,
}

impl Edb {
    /// The stored relations of `instance` and a fresh overlay on its
    /// arena; nothing is interned.
    pub(crate) fn of(instance: &Instance) -> Edb {
        Edb {
            stored: instance
                .schema()
                .relations()
                .map(|r| (r.name.clone(), instance.id_table(&r.name)))
                .collect(),
            frozen: IdbI::new(),
            int: instance.overlay(),
        }
    }

    /// Resolve interned relations back to values (the boundary).
    pub(crate) fn resolve(&self, idb: IdbI) -> Idb {
        idb.into_iter()
            .map(|(name, rel)| (name, rel.to_relation(&self.int)))
            .collect()
    }

    fn get(&self, name: &str) -> Option<Source<'_>> {
        match self.frozen.get(name) {
            Some(rel) => Some(Source::Derived(rel)),
            None => self.stored.get(name).map(|t| Source::Stored(t)),
        }
    }
}

/// [`eval_governed`] with an explicit [`ThreadPool`]. At `threads == 1` the
/// round loop is executed exactly as in previous releases; at higher
/// parallelism each round's rule evaluations — and, under semi-naive, each
/// (rule, delta-position, delta-chunk) — become independent tasks fanned
/// out over the pool, with worker-local outputs merged at the round
/// barrier. Derived relations are identical at every parallelism level;
/// [`EvalStats::joins`] and the exact step-fuel trip point may differ when
/// `threads > 1` because chunked tasks re-scan the body prefix before the
/// pinned literal.
pub fn eval_pooled(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<(Idb, EvalStats), ProgramError> {
    program.validate(instance.schema())?;
    let edb = Edb::of(instance);
    let (idb, stats) = fixpoint(program, &edb, strategy, governor, pool)?;
    Ok((edb.resolve(idb), stats))
}

/// The inflationary round loop of [`eval_pooled`] over an already
/// validated program, reading `edb` and interning into its overlay.
pub(crate) fn fixpoint(
    program: &Program,
    edb: &Edb,
    strategy: Strategy,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<(IdbI, EvalStats), ProgramError> {
    let empty_idb = || -> IdbI {
        program
            .idb
            .keys()
            .map(|k| (k.clone(), IdRelation::new()))
            .collect()
    };
    let mut idb = empty_idb();
    let mut delta = empty_idb();
    let mut stats = EvalStats::default();
    loop {
        stats.rounds += 1;
        governor.check_iters("datalog.round", stats.rounds as u64)?;
        let mut new_delta = empty_idb();
        let mut grew = false;
        // Build this round's task list: one task per rule under naive
        // evaluation (and in the first full round), one per delta-positive
        // literal occurrence under semi-naive — split further into
        // per-chunk tasks when the delta is large enough to share.
        let mut tasks: Vec<(&Rule, Pin<'_>)> = Vec::new();
        for rule in &program.rules {
            let use_delta = strategy == Strategy::SemiNaive && stats.rounds > 1;
            if use_delta {
                for (pos, lit) in rule.body.iter().enumerate() {
                    let Literal::Pos(name, _) = lit else { continue };
                    if !idb.contains_key(name) {
                        continue;
                    }
                    let d = &delta[name];
                    if pool.threads() > 1 && d.len() >= 2 {
                        for chunk in partition_rows(d, pool.threads()) {
                            tasks.push((rule, Pin::Owned(pos, chunk)));
                        }
                    } else {
                        tasks.push((rule, Pin::Borrowed(pos, d)));
                    }
                }
            } else {
                tasks.push((rule, Pin::None));
            }
        }
        if pool.threads() > 1 && tasks.len() > 1 {
            let results = pool.try_map(tasks, |(rule, pin)| {
                let mut local = empty_idb();
                let mut local_stats = EvalStats::default();
                let ctx = Ctx {
                    rule,
                    edb,
                    idb: &idb,
                    pinned: pin.get(),
                    governor,
                };
                ctx.derive(&mut local, &mut local_stats)?;
                Ok::<(IdbI, u64), ProgramError>((local, local_stats.joins))
            })?;
            for (local, joins) in results {
                stats.joins += joins;
                for (name, rel) in local {
                    if !rel.is_empty() {
                        new_delta.get_mut(&name).expect("declared IDB").absorb(&rel);
                    }
                }
            }
        } else {
            for (rule, pin) in &tasks {
                let ctx = Ctx {
                    rule,
                    edb,
                    idb: &idb,
                    pinned: pin.get(),
                    governor,
                };
                ctx.derive(&mut new_delta, &mut stats)?;
            }
        }
        for (name, facts) in &new_delta {
            let target = idb.get_mut(name).expect("declared IDB");
            let mut fresh = IdRelation::new();
            for row in facts.iter() {
                if !target.contains(row) {
                    fresh.insert(row.to_vec().into_boxed_slice());
                }
            }
            if !fresh.is_empty() {
                grew = true;
                target.absorb(&fresh);
            }
            delta.insert(name.to_string(), fresh);
        }
        if !grew {
            break;
        }
    }
    stats.facts = idb.values().map(IdRelation::len).sum();
    Ok((idb, stats))
}

/// Where a literal's rows come from: a stored relation's cached table or
/// a relation of this evaluation (IDB, delta, frozen stratum).
#[derive(Clone, Copy)]
enum Source<'a> {
    Stored(&'a ColumnTable),
    Derived(&'a IdRelation),
}

impl Source<'_> {
    fn contains(&self, row: &[ValueId]) -> bool {
        match self {
            Source::Stored(t) => t.contains_row(row),
            Source::Derived(rel) => rel.contains(row),
        }
    }
}

/// A positive literal's probe. Which argument position keys it depends
/// only on the body *prefix* (the set of variables bound before a given
/// depth is the same for every visit), so one slot per body literal
/// suffices for a whole rule evaluation; indexes are scratch, never
/// charged, like the scans they replace.
enum Probe {
    /// Not yet decided for this rule evaluation.
    Unbuilt,
    /// No argument is known when the literal is reached: scan.
    Scan,
    /// A stored relation keyed on its first column: the matching rows are
    /// one range of the canonical order.
    First,
    /// Stored row positions grouped by their id at `col`.
    Positions {
        /// The probed argument position.
        col: usize,
        /// Row positions grouped by their id at `col`.
        groups: HashMap<ValueId, Vec<u32>>,
    },
    /// Derived rows grouped by their id at `col`; probes clone only the
    /// matching group (O(matches), each of which is recursed into anyway).
    Index {
        /// The probed argument position.
        col: usize,
        /// Rows grouped by their value at `col`.
        groups: HashMap<ValueId, Vec<Box<[ValueId]>>>,
    },
}

impl Probe {
    /// Decide how a literal over `src` with `args` is probed under `env`.
    fn build(src: Source<'_>, args: &[DTerm], env: &HashMap<String, ValueId>) -> Probe {
        let col = args.iter().position(|a| match a {
            DTerm::Const(_) => true,
            DTerm::Var(v) => env.contains_key(v),
        });
        match (col, src) {
            (None, _) => Probe::Scan,
            (Some(0), Source::Stored(_)) => Probe::First,
            (Some(col), Source::Stored(t)) => {
                let mut groups: HashMap<ValueId, Vec<u32>> = HashMap::new();
                for (i, id) in t.col(col).iter().enumerate() {
                    groups.entry(*id).or_default().push(i as u32);
                }
                Probe::Positions { col, groups }
            }
            (Some(col), Source::Derived(rel)) => {
                let mut groups: HashMap<ValueId, Vec<Box<[ValueId]>>> = HashMap::new();
                for row in rel.iter() {
                    groups
                        .entry(row[col])
                        .or_default()
                        .push(row.to_vec().into_boxed_slice());
                }
                Probe::Index { col, groups }
            }
        }
    }
}

/// What one rule evaluation reads; fixed for its whole backtracking
/// search.
struct Ctx<'a> {
    rule: &'a Rule,
    edb: &'a Edb,
    idb: &'a IdbI,
    pinned: Option<(usize, &'a IdRelation)>,
    governor: &'a Governor,
}

/// What one rule evaluation writes as it backtracks.
struct State<'o> {
    env: HashMap<String, ValueId>,
    probes: Vec<Probe>,
    out: &'o mut IdbI,
    stats: &'o mut EvalStats,
}

impl<'a> Ctx<'a> {
    /// Evaluate the rule body by backtracking over literals left to
    /// right, inserting derived head facts into `out`.
    fn derive(&self, out: &mut IdbI, stats: &mut EvalStats) -> Result<(), ProgramError> {
        let mut st = State {
            env: HashMap::new(),
            probes: self.rule.body.iter().map(|_| Probe::Unbuilt).collect(),
            out,
            stats,
        };
        self.search(0, &mut st)
    }

    fn int(&self) -> &'a Interner {
        &self.edb.int
    }

    /// A relation by name: the IDB first, then frozen strata and stored
    /// relations.
    fn lookup(&self, name: &str) -> Option<Source<'a>> {
        match self.idb.get(name) {
            Some(rel) => Some(Source::Derived(rel)),
            None => self.edb.get(name),
        }
    }

    fn eval_term(&self, t: &DTerm, env: &HashMap<String, ValueId>) -> Option<ValueId> {
        match t {
            // hash-consed: repeated constant evaluation is a map lookup
            DTerm::Const(c) => Some(self.int().intern(c)),
            DTerm::Var(v) => env.get(v).copied(),
        }
    }

    fn search(&self, depth: usize, st: &mut State<'_>) -> Result<(), ProgramError> {
        st.stats.joins += 1;
        self.governor.tick("datalog.search")?;
        let rule = self.rule;
        if depth == rule.body.len() {
            // all literals satisfied: emit the head fact
            let row: Option<Vec<ValueId>> = rule
                .head_args
                .iter()
                .map(|t| self.eval_term(t, &st.env))
                .collect();
            if let Some(row) = row {
                // one id per column; the values behind the ids were admitted
                // to the arena (and charged, where applicable) once
                self.governor
                    .charge_mem("datalog.derive", 8 * row.len() as u64)?;
                st.out
                    .get_mut(&rule.head)
                    .expect("declared IDB")
                    .insert(row.into_boxed_slice());
            }
            return Ok(());
        }
        let int = self.int();
        match &rule.body[depth] {
            Literal::Pos(name, args) => {
                let src = match self.pinned {
                    Some((pos, drel)) if pos == depth => Source::Derived(drel),
                    _ => match self.lookup(name) {
                        Some(src) => src,
                        None => return Ok(()),
                    },
                };
                // Pre-intern constant args so unification inside the scan is
                // pure id compares.
                let consts: Vec<Option<ValueId>> = args
                    .iter()
                    .map(|a| match a {
                        DTerm::Const(c) => Some(int.intern(c)),
                        DTerm::Var(_) => None,
                    })
                    .collect();
                if matches!(st.probes[depth], Probe::Unbuilt) {
                    st.probes[depth] = Probe::build(src, args, &st.env);
                }
                let key = |col: usize, env: &HashMap<String, ValueId>| match &args[col] {
                    DTerm::Const(_) => consts[col].expect("interned above"),
                    DTerm::Var(v) => env[v.as_str()],
                };
                match (src, &st.probes[depth]) {
                    (Source::Derived(rel), Probe::Scan) => {
                        for row in rel.iter() {
                            self.visit(depth, args, &consts, row, st)?;
                        }
                    }
                    (Source::Derived(_), Probe::Index { col, groups }) => {
                        let rows = groups.get(&key(*col, &st.env)).cloned();
                        for row in rows.iter().flatten() {
                            self.visit(depth, args, &consts, row, st)?;
                        }
                    }
                    (Source::Stored(t), Probe::Positions { col, groups }) => {
                        let rows = groups.get(&key(*col, &st.env)).cloned();
                        let rows = rows.iter().flatten().map(|&i| i as usize);
                        self.visit_stored(depth, args, &consts, t, rows, st)?;
                    }
                    (Source::Stored(t), Probe::First) => {
                        let rows = t.rows_with_first(key(0, &st.env));
                        self.visit_stored(depth, args, &consts, t, rows, st)?;
                    }
                    (Source::Stored(t), _) => {
                        self.visit_stored(depth, args, &consts, t, 0..t.len(), st)?;
                    }
                    (Source::Derived(_), _) => unreachable!("probe built for a stored relation"),
                }
                Ok(())
            }
            Literal::Neg(name, args) => {
                let row: Option<Vec<ValueId>> =
                    args.iter().map(|t| self.eval_term(t, &st.env)).collect();
                let Some(row) = row else { return Ok(()) };
                let holds = self.lookup(name).is_some_and(|r| r.contains(&row));
                if !holds {
                    self.search(depth + 1, st)?;
                }
                Ok(())
            }
            Literal::Eq(a, b) => match (self.eval_term(a, &st.env), self.eval_term(b, &st.env)) {
                (Some(x), Some(y)) => {
                    if x == y {
                        self.search(depth + 1, st)?;
                    }
                    Ok(())
                }
                (Some(x), None) => self.bind_and_continue(depth, b, x, st),
                (None, Some(y)) => self.bind_and_continue(depth, a, y, st),
                (None, None) => Ok(()),
            },
            Literal::Neq(a, b) => {
                if let (Some(x), Some(y)) = (self.eval_term(a, &st.env), self.eval_term(b, &st.env))
                {
                    if x != y {
                        self.search(depth + 1, st)?;
                    }
                }
                Ok(())
            }
            Literal::In(a, b) => {
                let Some(set) = self.eval_term(b, &st.env) else {
                    return Ok(());
                };
                let Some(elems) = int.set_elems(set) else {
                    return Ok(());
                };
                match self.eval_term(a, &st.env) {
                    Some(x) => {
                        if int.set_contains(elems, x) {
                            self.search(depth + 1, st)?;
                        }
                        Ok(())
                    }
                    None => {
                        let DTerm::Var(v) = a else { return Ok(()) };
                        let mut result = Ok(());
                        for &elem in elems {
                            st.env.insert(v.clone(), elem);
                            result = self.search(depth + 1, st);
                            if result.is_err() {
                                break;
                            }
                        }
                        st.env.remove(v);
                        result
                    }
                }
            }
            Literal::NotIn(a, b) => {
                if let (Some(x), Some(set)) =
                    (self.eval_term(a, &st.env), self.eval_term(b, &st.env))
                {
                    if let Some(elems) = int.set_elems(set) {
                        if !int.set_contains(elems, x) {
                            self.search(depth + 1, st)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Unify one candidate row with a positive literal and, on a match,
    /// search the rest of the body; bindings made here are undone after.
    fn visit(
        &self,
        depth: usize,
        args: &'a [DTerm],
        consts: &[Option<ValueId>],
        row: &[ValueId],
        st: &mut State<'_>,
    ) -> Result<(), ProgramError> {
        let (ok, bound_here) = unify(args, consts, row, &mut st.env);
        let deeper = if ok {
            self.search(depth + 1, st)
        } else {
            Ok(())
        };
        for v in bound_here {
            st.env.remove(v);
        }
        deeper
    }

    /// [`Ctx::visit`] every row of `t` at the given positions.
    fn visit_stored(
        &self,
        depth: usize,
        args: &'a [DTerm],
        consts: &[Option<ValueId>],
        t: &ColumnTable,
        rows: impl Iterator<Item = usize>,
        st: &mut State<'_>,
    ) -> Result<(), ProgramError> {
        let mut row = Vec::with_capacity(t.arity());
        for i in rows {
            t.read_row(i, &mut row);
            self.visit(depth, args, consts, &row, st)?;
        }
        Ok(())
    }

    fn bind_and_continue(
        &self,
        depth: usize,
        target: &DTerm,
        value: ValueId,
        st: &mut State<'_>,
    ) -> Result<(), ProgramError> {
        let DTerm::Var(v) = target else { return Ok(()) };
        st.env.insert(v.clone(), value);
        let result = self.search(depth + 1, st);
        st.env.remove(v);
        result
    }
}

/// Unify a row against a literal's arguments under `env`. Returns whether
/// the row matched and which variables this row newly bound (for the
/// caller to undo); on mismatch, bindings made before the failing column
/// are already recorded in the returned list.
fn unify<'a>(
    args: &'a [DTerm],
    consts: &[Option<ValueId>],
    row: &[ValueId],
    env: &mut HashMap<String, ValueId>,
) -> (bool, Vec<&'a str>) {
    let mut bound_here: Vec<&str> = Vec::new();
    for ((arg, cid), &val) in args.iter().zip(consts).zip(row.iter()) {
        match arg {
            DTerm::Const(_) => {
                if *cid != Some(val) {
                    return (false, bound_here);
                }
            }
            DTerm::Var(v) => match env.get(v) {
                Some(&existing) => {
                    if existing != val {
                        return (false, bound_here);
                    }
                }
                None => {
                    env.insert(v.clone(), val);
                    bound_here.push(v);
                }
            },
        }
    }
    (true, bound_here)
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{RelationSchema, Schema, Type, Universe, Value};

    fn graph(edges: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
    }

    fn tc_program() -> Program {
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
        p
    }

    #[test]
    fn transitive_closure_naive() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let (idb, stats) = eval(&tc_program(), &i, Strategy::Naive).unwrap();
        assert_eq!(idb["tc"].len(), 6);
        assert!(stats.rounds >= 3);
    }

    #[test]
    fn naive_equals_seminaive_on_chains_and_cycles() {
        for edges in [
            vec![("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
            vec![("a", "b"), ("b", "a"), ("b", "c")],
            vec![("a", "a")],
            vec![],
        ] {
            let (_u, i) = graph(&edges);
            let (n, _) = eval(&tc_program(), &i, Strategy::Naive).unwrap();
            let (s, _) = eval(&tc_program(), &i, Strategy::SemiNaive).unwrap();
            assert_eq!(n, s, "edges {edges:?}");
        }
    }

    #[test]
    fn seminaive_does_less_work() {
        let edges: Vec<(String, String)> = (0..30)
            .map(|k| (format!("n{k}"), format!("n{}", k + 1)))
            .collect();
        let edge_refs: Vec<(&str, &str)> = edges
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let (_u, i) = graph(&edge_refs);
        let (_, naive) = eval(&tc_program(), &i, Strategy::Naive).unwrap();
        let (_, semi) = eval(&tc_program(), &i, Strategy::SemiNaive).unwrap();
        assert!(
            semi.joins * 2 < naive.joins,
            "semi {} vs naive {}",
            semi.joins,
            naive.joins
        );
    }

    #[test]
    fn negation_inflationary_semantics() {
        // unreach(x, y) :- node(x), node(y), !tc(x, y).
        // Evaluated inflationarily *with* tc rules: unreach snapshots
        // pairs while tc is still growing, so it ends up a superset of the
        // true complement — the paper's point that inflationary negation
        // is about *when* a fact is derived. We check the final state
        // contains at least the true complement.
        let (u, i) = graph(&[("a", "b"), ("b", "c")]);
        let mut p = tc_program();
        p.declare("node", vec![Type::Atom]);
        p.declare("unreach", vec![Type::Atom, Type::Atom]);
        p.rule(
            "node",
            vec![DTerm::var("x")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "node",
            vec![DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "unreach",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("node".into(), vec![DTerm::var("x")]),
                Literal::Pos("node".into(), vec![DTerm::var("y")]),
                Literal::Neg("tc".into(), vec![DTerm::var("x"), DTerm::var("y")]),
            ],
        );
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        let a = Value::Atom(u.get("a").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        // (c, a) is never reachable, so it must be in unreach
        assert!(idb["unreach"].contains(&[c.clone(), a.clone()]));
        // (a, c) IS reachable but was unreach-derived in round 1 before tc
        // closed — inflationary semantics keeps it
        assert!(idb["unreach"].contains(&[a, c]));
    }

    #[test]
    fn membership_generates_bindings() {
        // flatten(x) :- P(S), x in S.
        let su = Type::set(Type::Atom);
        let schema = Schema::from_relations([RelationSchema::new("P", vec![su])]);
        let mut u = Universe::new();
        let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
        let mut i = Instance::empty(schema);
        i.insert("P", vec![Value::set([Value::Atom(a), Value::Atom(b)])]);
        i.insert("P", vec![Value::set([Value::Atom(c)])]);
        let mut p = Program::new();
        p.declare("flat", vec![Type::Atom]);
        p.rule(
            "flat",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("P".into(), vec![DTerm::var("S")]),
                Literal::In(DTerm::var("x"), DTerm::var("S")),
            ],
        );
        let (idb, _) = eval(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(idb["flat"].len(), 3);
    }

    #[test]
    fn constants_filter() {
        let (u, i) = graph(&[("a", "b"), ("b", "c")]);
        let a = Value::Atom(u.get("a").unwrap());
        let mut p = Program::new();
        p.declare("from_a", vec![Type::Atom]);
        p.rule(
            "from_a",
            vec![DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::Const(a), DTerm::var("y")],
            )],
        );
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        assert_eq!(idb["from_a"].len(), 1);
    }

    #[test]
    fn neq_and_notin_filters() {
        let (u, i) = graph(&[("a", "b"), ("b", "b")]);
        let mut p = Program::new();
        p.declare("proper", vec![Type::Atom, Type::Atom]);
        p.rule(
            "proper",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
                Literal::Neq(DTerm::var("x"), DTerm::var("y")),
            ],
        );
        let (idb, _) = eval(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(idb["proper"].len(), 1);
        assert!(idb["proper"].contains(&[
            Value::Atom(u.get("a").unwrap()),
            Value::Atom(u.get("b").unwrap())
        ]));
    }

    #[test]
    fn step_fuel_bounds_join_attempts() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let g = Governor::new(Limits {
                max_steps: 10,
                ..Limits::unlimited()
            });
            match eval_governed(&tc_program(), &i, strategy, &g) {
                Err(ProgramError::Resource(e)) => {
                    assert_eq!(e.budget, BudgetKind::Steps, "{strategy:?}");
                    assert_eq!(e.site, "datalog.search");
                }
                other => panic!("{strategy:?}: expected step Resource error, got {other:?}"),
            }
        }
    }

    #[test]
    fn iteration_cap_bounds_rounds() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        let g = Governor::new(Limits {
            max_fixpoint_iters: 2,
            ..Limits::unlimited()
        });
        match eval_governed(&tc_program(), &i, Strategy::Naive, &g) {
            Err(ProgramError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::FixpointIters);
                assert_eq!(e.site, "datalog.round");
            }
            other => panic!("expected iteration Resource error, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_bounds_derived_facts() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let g = Governor::new(Limits {
            max_memory_bytes: 32,
            ..Limits::unlimited()
        });
        match eval_governed(&tc_program(), &i, Strategy::SemiNaive, &g) {
            Err(ProgramError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::Memory);
                assert_eq!(e.site, "datalog.derive");
            }
            other => panic!("expected memory Resource error, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_evaluation() {
        let (_u, i) = graph(&[("a", "b")]);
        let g = Governor::default();
        g.cancel();
        match eval_governed(&tc_program(), &i, Strategy::Naive, &g) {
            Err(ProgramError::Resource(e)) => {
                assert_eq!(e.budget, no_object::BudgetKind::Cancelled)
            }
            other => panic!("expected cancellation error, got {other:?}"),
        }
    }

    #[test]
    fn pooled_matches_sequential() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "a")]);
        let (seq, _) =
            eval_governed(&tc_program(), &i, Strategy::SemiNaive, &Governor::default()).unwrap();
        for threads in [2, 4] {
            for strategy in [Strategy::Naive, Strategy::SemiNaive] {
                let pool = ThreadPool::new(threads);
                let (par, _) =
                    eval_pooled(&tc_program(), &i, strategy, &Governor::default(), &pool).unwrap();
                assert_eq!(seq, par, "threads {threads} {strategy:?}");
            }
        }
    }

    #[test]
    fn empty_program_converges_immediately() {
        let (_u, i) = graph(&[("a", "b")]);
        let p = Program::new();
        let (idb, stats) = eval(&p, &i, Strategy::Naive).unwrap();
        assert!(idb.is_empty());
        assert_eq!(stats.rounds, 1);
    }
}
