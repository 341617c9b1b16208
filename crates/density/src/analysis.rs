//! Empirical density/sparsity classification (Definition 4.1, Lemma 4.1).
//!
//! Given a sequence of instances from a family, we measure for each the
//! cardinality `|I|`, the size `‖I‖`, and `log2 |dom(i,k,atom(I))|`, then
//! test the defining inequalities on a log scale:
//!
//! * **dense**: `|dom(i,k,D)| ≤ P(|I|)` — i.e. `log |dom|` grows at most
//!   linearly in `log |I|`;
//! * **sparse**: `|I| ≤ P(log |dom(i,k,D)|)` — i.e. `log |I|` grows at
//!   most linearly in `log log |dom|`.
//!
//! The classifier fits the growth exponent by least squares over the
//! measured points and compares against a tolerance. Lemma 4.1 (the
//! equivalence of the cardinality- and size-based notions) is checked by
//! classifying the same family under both measures — experiment E5.

use no_object::domain::ik_dom_card_log2;
use no_object::encoding::instance_size;
use no_object::{AtomOrder, Instance};

/// One measured instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Number of atoms.
    pub atoms: usize,
    /// Cardinality `|I|` (tuple count).
    pub cardinality: usize,
    /// Size `‖I‖` (encoding length).
    pub size: usize,
    /// `log2 |dom(i,k,atom(I))|`.
    pub dom_log2: f64,
    /// `log2 ‖dom(i,k,atom(I))‖` (approximated from the cardinality via
    /// Proposition 2.1's polylog factor; exact enough on a log scale).
    pub dom_size_log2: f64,
}

/// Measure an instance w.r.t. `⟨i,k⟩`-types.
pub fn measure(order: &AtomOrder, instance: &Instance, i: usize, k: usize) -> Measurement {
    let atoms = instance.atom_count();
    let dom_log2 = ik_dom_card_log2(i, k, atoms.max(1));
    // ‖dom‖ ≤ |dom|·P(log|dom|): on a log2 scale the polylog factor is
    // log2(polylog) = O(log log) — add one representative term.
    let dom_size_log2 = dom_log2 + (dom_log2.max(2.0)).log2();
    Measurement {
        atoms,
        cardinality: instance.cardinality(),
        size: instance_size(order, instance),
        dom_log2,
        dom_size_log2,
    }
}

/// The verdict for one family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensityClass {
    /// `log|dom|` bounded by a polynomial in `log|I|` (slope fit).
    Dense,
    /// `log|I|` bounded by a polynomial in `log log|dom|`.
    Sparse,
    /// Neither inequality fits within tolerance.
    Neither,
}

/// Which measure to classify on (Lemma 4.1 says the answers coincide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// Use `|I|` and `|dom|`.
    Cardinality,
    /// Use `‖I‖` and `‖dom‖`.
    Size,
}

/// Least-squares slope of `ys` against `xs`.
fn fit_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// Report of a classification: the fitted exponents and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityReport {
    /// Fitted exponent of `|dom|` as a power of `|I|` (density test):
    /// slope of `log log|dom|` against `log log|I|`... practically, the
    /// slope of `log2 dom_log2` vs `log2 log2|I|`; ≤ `tolerance` ⇒ dense.
    pub density_exponent: f64,
    /// Fitted exponent of `|I|` as a power of `log|dom|` (sparsity test).
    pub sparsity_exponent: f64,
    /// The verdict.
    pub class: DensityClass,
}

/// Classify a measured family.
///
/// Density (`|dom| ≤ |I|^c`) means `dom_log2 ≤ c · log2|I|`, so the ratio
/// `dom_log2 / log2|I|` stays bounded: we fit the slope of `dom_log2`
/// against `log2|I|` and call the family dense when the *growth* of the
/// ratio is flat (the fitted exponent of the ratio against `atoms` ≈ 0).
/// Sparsity (`|I| ≤ polylog|dom|`) similarly bounds
/// `log2|I| / log2(dom_log2)`.
pub fn classify(points: &[Measurement], kind: MeasureKind) -> DensityReport {
    assert!(points.len() >= 3, "need at least 3 points to classify");
    let (inst, dom): (Vec<f64>, Vec<f64>) = points
        .iter()
        .map(|m| match kind {
            MeasureKind::Cardinality => (m.cardinality.max(2) as f64, m.dom_log2),
            MeasureKind::Size => (m.size.max(2) as f64, m.dom_size_log2),
        })
        .unzip();
    let xs: Vec<f64> = points.iter().map(|m| m.atoms as f64).collect();
    // density ratio r_d = dom_log2 / log2|I|; sparsity ratio
    // r_s = log2|I| / log2(dom_log2)
    let density_ratio: Vec<f64> = inst
        .iter()
        .zip(&dom)
        .map(|(i, d)| d / i.log2().max(1e-9))
        .collect();
    let sparsity_ratio: Vec<f64> = inst
        .iter()
        .zip(&dom)
        .map(|(i, d)| i.log2() / d.max(2.0).log2())
        .collect();
    // A bounded ratio has ~zero slope against the scale parameter on a
    // log-log plot; a polynomially growing one has positive slope.
    let lx: Vec<f64> = xs.iter().map(|x| x.max(1.0).ln()).collect();
    let density_exponent = fit_slope(
        &lx,
        &density_ratio
            .iter()
            .map(|r| r.max(1e-9).ln())
            .collect::<Vec<_>>(),
    );
    let sparsity_exponent = fit_slope(
        &lx,
        &sparsity_ratio
            .iter()
            .map(|r| r.max(1e-9).ln())
            .collect::<Vec<_>>(),
    );
    const TOL: f64 = 0.35;
    let class = if density_exponent < TOL {
        DensityClass::Dense
    } else if sparsity_exponent < TOL + 1.0 {
        // |I| ≤ P(log|dom|) allows ratio growth up to the polynomial
        // degree; a linear-in-log family like VERSO has exponent ≈ 1
        DensityClass::Sparse
    } else {
        DensityClass::Neither
    };
    DensityReport {
        density_exponent,
        sparsity_exponent,
        class,
    }
}

/// A per-type measurement (the individual-type variant of Definition 4.1,
/// and the multi-sorted reading of Remark 4.1): how many *distinct
/// sub-objects* of type `ty` the instance contains, against `|dom(ty, D)|`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeMeasurement {
    /// Number of atoms in the instance.
    pub atoms: usize,
    /// Distinct sub-objects of the type occurring in the instance.
    pub occurrences: usize,
    /// `log2 |dom(ty, atom(I))|`.
    pub dom_log2: f64,
}

/// Measure one instance against one type.
pub fn measure_type(instance: &Instance, ty: &no_object::Type) -> TypeMeasurement {
    let atoms = instance.atom_count();
    TypeMeasurement {
        atoms,
        occurrences: instance.subobject_count(ty),
        dom_log2: no_object::domain::card_log2(ty, atoms.max(1)),
    }
}

/// Classify a family w.r.t. one specific type: dense when the occurrence
/// count tracks the domain cardinality polynomially, sparse when it stays
/// polylogarithmic in it. The practical reading is Remark 4.1: quantify
/// over a type only where the database is dense in it.
pub fn classify_type(points: &[TypeMeasurement]) -> DensityReport {
    let converted: Vec<Measurement> = points
        .iter()
        .map(|m| Measurement {
            atoms: m.atoms,
            cardinality: m.occurrences,
            size: m.occurrences.max(1),
            dom_log2: m.dom_log2,
            dom_size_log2: m.dom_log2,
        })
        .collect();
    classify(&converted, MeasureKind::Cardinality)
}

/// Classify under both measures and check they agree (Lemma 4.1).
pub fn classify_both(points: &[Measurement]) -> (DensityReport, DensityReport, bool) {
    let by_card = classify(points, MeasureKind::Cardinality);
    let by_size = classify(points, MeasureKind::Size);
    let agree = by_card.class == by_size.class;
    (by_card, by_size, agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn measure_family(
        gens: impl IntoIterator<Item = families::Generated>,
        i: usize,
        k: usize,
    ) -> Vec<Measurement> {
        gens.into_iter()
            .map(|g| measure(&g.order, &g.instance, i, k))
            .collect()
    }

    #[test]
    fn subset_family_is_dense_wrt_1_1() {
        let points = measure_family((6..=12).map(families::subset_family), 1, 1);
        let report = classify(&points, MeasureKind::Cardinality);
        assert_eq!(report.class, DensityClass::Dense, "{report:?}");
    }

    #[test]
    fn verso_family_is_sparse_wrt_1_1() {
        let points = measure_family((6..=16).map(|n| families::verso_family(n, 3)), 1, 1);
        let report = classify(&points, MeasureKind::Cardinality);
        assert_eq!(report.class, DensityClass::Sparse, "{report:?}");
    }

    #[test]
    fn verso_family_is_sparse_wrt_1_2() {
        let points = measure_family((6..=16).map(|n| families::verso_family(n, 3)), 1, 2);
        let report = classify(&points, MeasureKind::Cardinality);
        assert_eq!(report.class, DensityClass::Sparse, "{report:?}");
    }

    #[test]
    fn bounded_enrollment_is_sparse() {
        let points = measure_family(
            (6..=14).map(|n| families::bounded_enrollment_family(n, 2)),
            1,
            1,
        );
        let report = classify(&points, MeasureKind::Cardinality);
        assert_eq!(report.class, DensityClass::Sparse, "{report:?}");
    }

    #[test]
    fn free_enrollment_is_dense() {
        let points = measure_family((6..=12).map(families::free_enrollment_family), 1, 1);
        let report = classify(&points, MeasureKind::Cardinality);
        assert_eq!(report.class, DensityClass::Dense, "{report:?}");
    }

    #[test]
    fn lemma_4_1_measures_agree() {
        // dense family: agreement
        let dense = measure_family((6..=12).map(families::subset_family), 1, 1);
        let (_, _, agree) = classify_both(&dense);
        assert!(agree, "dense family: card/size classifications diverge");
        // sparse family: agreement
        let sparse = measure_family((6..=16).map(|n| families::verso_family(n, 9)), 1, 1);
        let (_, _, agree) = classify_both(&sparse);
        assert!(agree, "sparse family: card/size classifications diverge");
    }

    #[test]
    fn flat_graphs_are_sparse_wrt_higher_types() {
        // Section 6: flat inputs are sparse w.r.t. all higher types
        let points = measure_family((6..=16).map(families::path_graph), 1, 2);
        let report = classify(&points, MeasureKind::Cardinality);
        assert_eq!(report.class, DensityClass::Sparse, "{report:?}");
    }

    #[test]
    fn remark_4_1_per_type_density() {
        use no_object::Type;
        // VERSO family: dense w.r.t. U (all atoms occur) but sparse w.r.t.
        // {U} (only n of the 2^n sets occur) — the multi-sorted situation
        // Remark 4.1 describes.
        let su = Type::set(Type::Atom);
        let atom_points: Vec<TypeMeasurement> = (6..=16)
            .step_by(2)
            .map(|n| measure_type(&crate::families::verso_family(n, 5).instance, &Type::Atom))
            .collect();
        let set_points: Vec<TypeMeasurement> = (6..=16)
            .step_by(2)
            .map(|n| measure_type(&crate::families::verso_family(n, 5).instance, &su))
            .collect();
        assert_eq!(classify_type(&atom_points).class, DensityClass::Dense);
        assert_eq!(classify_type(&set_points).class, DensityClass::Sparse);
    }

    #[test]
    fn subset_family_is_dense_per_type_too() {
        use no_object::Type;
        let su = Type::set(Type::Atom);
        let points: Vec<TypeMeasurement> = (6..=12)
            .map(|n| measure_type(&crate::families::subset_family(n).instance, &su))
            .collect();
        assert_eq!(classify_type(&points).class, DensityClass::Dense);
    }

    #[test]
    fn measurements_expose_expected_magnitudes() {
        let g = families::subset_family(8);
        let m = measure(&g.order, &g.instance, 1, 1);
        assert_eq!(m.atoms, 8);
        assert_eq!(m.cardinality, 256);
        assert!(m.dom_log2 >= 8.0, "{}", m.dom_log2);
        assert!(m.size > m.cardinality, "encodings are longer than counts");
    }

    #[test]
    #[should_panic(expected = "at least 3 points")]
    fn too_few_points_rejected() {
        let g = families::subset_family(4);
        let m = measure(&g.order, &g.instance, 1, 1);
        classify(&[m.clone(), m], MeasureKind::Cardinality);
    }
}
