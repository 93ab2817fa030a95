//! Seeded input generation: the `serve_hot` catalog and job mix, and the
//! transient FEM chain.  Every input is a pure function of the seed; the runtime only
//! ever sees the generated matrices and plans.

use std::sync::Arc;

use refloat_core::ReFloatConfig;
use refloat_matgen::fem::poisson_2d;
use refloat_matgen::generators;
use refloat_matgen::{SolveStep, TransientChain, TransientSpec};
use refloat_runtime::{MatrixHandle, RefinementSpec, SolvePlan};
use refloat_solvers::{SolverConfig, SolverKind};

/// Grid scale of the serving catalog (the `serve_traffic` full catalog).
pub const CATALOG_SCALE: usize = 48;

/// Seed of the catalog's random matrices: `serve_traffic`'s default, so the
/// catalog is the same fixed set of eight matrices in every run and the
/// benchmark seed varies the traffic over it (where the job sequence starts).
/// The amount of work per round then depends on the system alone.
pub const CATALOG_SEED: u64 = 2023;

/// Relative tolerance of every serving solve (as in `serve_traffic`).
pub const SERVE_TOLERANCE: f64 = 1e-8;

/// True fp64 relative residual every transient step is refined to.
pub const TRANSIENT_TOLERANCE: f64 = 1e-8;

/// One matrix of the serving catalog with the format and solver its tenants use.
pub struct CatalogEntry {
    pub handle: MatrixHandle,
    pub format: ReFloatConfig,
    pub solver: SolverKind,
    /// Zipf popularity weight, `1 / (rank + 1)`.
    pub weight: f64,
    /// The largest true fp64 relative residual the gate accepts for this
    /// entry's solution: its pinned residual times [`RESIDUAL_SLACK`].
    pub residual_ceiling: f64,
}

/// Slack on each catalog entry's pinned true residual.  A plain job converges
/// on the *quantized* operator, so its true fp64 residual sits at the
/// format's error floor, not at the solver tolerance: from 2.3e-4
/// (`convdiff-s`) to 12 (`minsurfo-s`, and 7.5 for `gridgena-s`: solutions
/// worse than `x = 0`, a defect of the program still to be fixed).  The pins
/// are the residuals measured when the benchmark was defined (the solves are
/// deterministic); a change to the kernels or the converter that makes a
/// solution more than twice as wrong fails the gate.
pub const RESIDUAL_SLACK: f64 = 2.0;

/// The eight Table V-style analogues of `serve_traffic`'s full catalog, as
/// `serve_traffic --seed 2023` builds it, each with its pinned true residual
/// (see [`RESIDUAL_SLACK`]).
pub fn catalog() -> Vec<CatalogEntry> {
    let (scale, seed) = (CATALOG_SCALE, CATALOG_SEED);
    let fmt = ReFloatConfig::new;
    let raw: Vec<(
        &str,
        refloat_sparse::CooMatrix,
        ReFloatConfig,
        SolverKind,
        f64,
    )> = vec![
        (
            "minsurfo-s",
            generators::laplacian_2d(scale, scale, 0.1),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
            1.2034e1,
        ),
        (
            "crystm-s",
            generators::mass_matrix_3d(scale / 4, scale / 4, scale / 4, 1e-12, 0.8, seed ^ 0x353),
            fmt(7, 3, 8, 3, 8),
            SolverKind::Cg,
            2.6585e-3,
        ),
        (
            "wathen-s",
            generators::wathen(scale / 3, scale / 3, seed ^ 0x1288),
            fmt(7, 5, 8, 5, 16),
            SolverKind::Cg,
            3.9265e-3,
        ),
        (
            "shallow-s",
            generators::sphere_ring_3regular(64 * scale, 1e12, 0.18),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
            2.9828e-2,
        ),
        (
            "gridgena-s",
            generators::anisotropic_9pt(scale, scale, 1.0, 0.05, 1e-3),
            fmt(6, 3, 3, 3, 16),
            SolverKind::Cg,
            7.4557e0,
        ),
        (
            "thermomech-s",
            generators::random_spd_graph(60 * scale, 6, 1.4, 1.0, seed ^ 0x2257),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
            1.5117e-1,
        ),
        (
            "thermomech-dm-s",
            generators::random_spd_graph(60 * scale, 6, 1.4, 1e-10, seed ^ 0x2259),
            fmt(6, 3, 3, 3, 8),
            SolverKind::Cg,
            1.4708e-1,
        ),
        (
            "convdiff-s",
            generators::convection_diffusion_2d(scale, scale, 8.0),
            fmt(7, 5, 16, 5, 16),
            SolverKind::BiCgStab,
            2.2502e-4,
        ),
    ];
    raw.into_iter()
        .enumerate()
        .map(
            |(rank, (name, coo, format, solver, residual))| CatalogEntry {
                handle: MatrixHandle::new(name, coo.to_csr()),
                format,
                solver,
                residual_ceiling: RESIDUAL_SLACK * residual,
                weight: 1.0 / (rank as f64 + 1.0),
            },
        )
        .collect()
}

/// The solver settings of every serving job.
pub fn serve_solver_config() -> SolverConfig {
    SolverConfig::relative(SERVE_TOLERANCE)
        .with_max_iterations(5_000)
        .with_trace(false)
}

/// A serving plan for catalog entry `entry` (right-hand side all ones, the
/// runtime default).
pub fn serve_plan(tenant: usize, entry: &CatalogEntry) -> SolvePlan {
    SolvePlan::new(
        format!("tenant-{tenant}"),
        entry.handle.clone(),
        entry.format,
    )
    .solver(entry.solver)
    .solver_config(serve_solver_config())
    .build()
    .expect("catalog plans are valid")
}

/// A smooth weighted round-robin over the catalog's popularity weights: each
/// entry appears in its weight's share of `jobs` and as evenly spread as the
/// counts allow; the seed rotates where the sequence starts.
pub fn smooth_mix(weights: &[f64], jobs: usize, seed: u64) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let mut credit = vec![0.0; weights.len()];
    let mut mix = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        for (c, w) in credit.iter_mut().zip(weights) {
            *c += w / total;
        }
        let next = (0..weights.len())
            .max_by(|&a, &b| credit[a].total_cmp(&credit[b]).then(b.cmp(&a)))
            .expect("a non-empty catalog");
        credit[next] -= 1.0;
        mix.push(next);
    }
    if jobs > 0 {
        mix.rotate_left((seed % jobs as u64) as usize);
    }
    mix
}

/// The transient chain's format (the `fig_transient` format).
pub fn transient_format() -> ReFloatConfig {
    ReFloatConfig::new(4, 3, 8, 3, 8)
}

/// Seed of the transient chain: `fig_transient`'s default, so every run
/// solves the same chain.  The chain's matrices set its work: some steps'
/// inner solves stagnate on the quantized operator and run to the
/// refinement's iteration cap (about 1.5 s each), and with a seeded chain
/// their count made the work per run vary by up to 1.5x between seeds.
pub const CHAIN_SEED: u64 = 2023;

/// A 2-D FEM Poisson chain of `steps` steps with the `fig_transient` drift
/// settings.  The chain is an iterator: steps are generated as they are
/// consumed.
pub fn transient_chain(nx: usize, steps: usize) -> TransientChain {
    let base = poisson_2d(nx, nx - 1, 0.2, CHAIN_SEED);
    TransientChain::new(
        base,
        TransientSpec::default()
            .with_steps(steps)
            .with_seed(CHAIN_SEED)
            .with_drift(1e-7, 0.25)
            .with_rhs_phase(1e-6)
            .with_mass(0.5, 0.0),
    )
}

/// The refinement spec of every transient step: the runtime's defaults (as
/// `fig_transient` runs them) with the fp64 target.
pub fn transient_refinement() -> RefinementSpec {
    RefinementSpec::to_target(TRANSIENT_TOLERANCE)
}

/// The plan of one transient step.
pub fn transient_plan(step: &SolveStep) -> SolvePlan {
    SolvePlan::new(
        "fem",
        MatrixHandle::new(format!("step-{}", step.index), step.matrix.clone()),
        transient_format(),
    )
    .rhs(Arc::new(step.rhs.clone()))
    .refinement(transient_refinement())
    .build()
    .expect("transient plans are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_smooth_mix_spreads_each_entry_evenly() {
        let cat = catalog();
        let weights: Vec<f64> = cat.iter().map(|e| e.weight).collect();
        let mix = smooth_mix(&weights, 240, 0);
        let gaps: Vec<usize> = mix
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == 4)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert_eq!(gaps.len() + 1, 18);
        assert!(gaps.iter().all(|&g| (10..=17).contains(&g)), "{gaps:?}");
        assert_eq!(smooth_mix(&weights, 240, 5)[..235], mix[5..]);
    }
}
