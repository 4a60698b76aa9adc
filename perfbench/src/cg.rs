//! The CG oracle: a plain serial conjugate-gradient solve written here,
//! over the same `makea` matrix `ss_npb::run_cg_with` builds, so a CG
//! solve is checked against an answer the runtime did not compute.

use ss_npb::CgParams;
use ss_runtime::CsrMatrix;

/// Inner CG iterations per `conj_grad` call in NPB CG.
const CGITMAX: usize = 25;

/// The answer one CG solve must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct CgAnswer {
    pub zeta: f64,
    pub rnorm: f64,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn matvec(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..a.nrows)
        .map(|row| {
            (a.rowptr[row]..a.rowptr[row + 1])
                .map(|k| a.values[k] * x[a.colidx[k]])
                .sum()
        })
        .collect()
}

/// `z ≈ A⁻¹ x` by `CGITMAX` CG iterations; returns `‖x − A z‖`.
fn conj_grad(a: &CsrMatrix, x: &[f64], z: &mut [f64]) -> f64 {
    z.fill(0.0);
    let mut r = x.to_vec();
    let mut p = r.clone();
    let mut rho = dot(&r, &r);
    for _ in 0..CGITMAX {
        let q = matvec(a, &p);
        let alpha = rho / dot(&p, &q);
        for i in 0..z.len() {
            z[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..p.len() {
            p[i] = r[i] + beta * p[i];
        }
    }
    let az = matvec(a, z);
    x.iter()
        .zip(&az)
        .map(|(xi, qi)| (xi - qi) * (xi - qi))
        .sum::<f64>()
        .sqrt()
}

/// The NPB CG outer loop (`niter` inverse-power steps) on `a`.
pub fn solve(a: &CsrMatrix, params: &CgParams) -> CgAnswer {
    let n = a.nrows;
    let mut x = vec![1.0; n];
    let mut z = vec![0.0; n];
    let mut answer = CgAnswer {
        zeta: 0.0,
        rnorm: 0.0,
    };
    for _ in 0..params.niter {
        answer.rnorm = conj_grad(a, &x, &mut z);
        let xz = dot(&x, &z);
        let zz = dot(&z, &z);
        answer.zeta = params.shift + 1.0 / xz.max(f64::MIN_POSITIVE);
        let norm = 1.0 / zz.sqrt();
        for i in 0..n {
            x[i] = norm * z[i];
        }
    }
    answer
}

/// Calls into `ss_runtime`'s parallel loops one `run_cg_with` solve makes,
/// counted from the iteration structure of `ss_npb::conj_grad`: per
/// `conj_grad`, one reduction for the initial `rho`, per inner iteration
/// six (SpMV, `p·q`, the two vector updates, `rho`, the `p` update) and two
/// at the end (SpMV, residual); per outer iteration two more reductions.
pub fn parallel_calls(params: &CgParams) -> f64 {
    (params.niter * (1 + CGITMAX * 6 + 2 + 2)) as f64
}
