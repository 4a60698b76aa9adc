//! The checks every operation's output goes through.  None compares with a
//! saved copy of earlier output; each compares with something computed
//! apart from the code path under test:
//!
//! * final heaps against the registry's reference engine (the `ast`
//!   tree-walker, which shares no code with the bytecode compiler) on the
//!   same inputs, computed outside the timed window;
//! * properties the kernels' results must have (Figure 9's product, the
//!   triangular system SpTRSV solves);
//! * verdicts against the catalogue's hand-written pattern classes, and
//!   against the original program's verdicts under identifier renaming;
//! * dispatch of the target loop in every parallel leg of a proven kernel;
//! * CG answers against the plain serial solve in `cg.rs`.
//!
//! [`self_test`] feeds each check a corrupted output and fails when the
//! check accepts it.

use ss_interp::{Heap, LoopVerdictSummary};
use ss_ir::LoopId;
use ss_npb::{PatternClass, StudyKernel};
use ss_parallelizer::{ParallelizationReport, VerdictKind};

/// What one execution reported, read from a `RunOutcome` in process or
/// from the daemon's JSON.
#[derive(Debug, Clone)]
pub struct Observed {
    pub heap: Heap,
    pub dispatched: Vec<LoopId>,
    /// `(loop, verdict label, baseline_parallel)` per loop.
    pub verdicts: Vec<(LoopId, String, bool)>,
}

impl Observed {
    pub fn from_outcome(
        heap: Heap,
        dispatched: &[LoopId],
        verdicts: &[LoopVerdictSummary],
    ) -> Self {
        Observed {
            heap,
            dispatched: dispatched.to_vec(),
            verdicts: verdicts
                .iter()
                .map(|v| {
                    (
                        v.loop_id,
                        v.verdict.label().to_string(),
                        v.baseline_parallel,
                    )
                })
                .collect(),
        }
    }
}

fn carried(kernel: &StudyKernel) -> bool {
    kernel.class == PatternClass::CarriedWavefront
}

/// The target loop's verdict follows from the kernel's pattern class:
/// proven (parallel or reduction) for the property classes, serial with a
/// wavefront fact for the carried class, and never proven by the
/// property-free baseline.
pub fn class_verdict(kernel: &StudyKernel, report: &ParallelizationReport) -> Result<(), String> {
    let target = report
        .loop_report(LoopId(kernel.target_loop))
        .ok_or(format!(
            "{}: no target loop L{}",
            kernel.name, kernel.target_loop
        ))?;
    if target.baseline_parallel {
        return Err(format!("{}: baseline proved the target loop", kernel.name));
    }
    let ok = if carried(kernel) {
        target.verdict() == VerdictKind::Serial && target.wavefront.is_some()
    } else {
        target.is_parallelizable() && target.wavefront.is_none()
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: target verdict {} (wavefront {}) does not fit class {}",
            kernel.name,
            target.verdict().label(),
            target.wavefront.is_some(),
            kernel.class.label()
        ))
    }
}

/// Renaming identifiers leaves every loop's verdict as it was.
pub fn same_verdicts(
    original: &ParallelizationReport,
    renamed: &ParallelizationReport,
) -> Result<(), String> {
    let facts = |r: &ParallelizationReport| -> Vec<_> {
        r.loops
            .iter()
            .map(|l| {
                (
                    l.loop_id,
                    l.verdict(),
                    l.baseline_parallel,
                    l.wavefront.is_some(),
                    l.reductions.len(),
                )
            })
            .collect()
    };
    if facts(original) == facts(renamed) {
        Ok(())
    } else {
        Err(format!("{}: verdicts changed under renaming", renamed.name))
    }
}

/// The verdicts an execution reports for the target loop agree with the
/// class, and a proven target loop ran dispatched in a parallel leg.
pub fn execution(
    kernel: &StudyKernel,
    threads: usize,
    parallel_leg: bool,
    seen: &Observed,
) -> Result<(), String> {
    let target = LoopId(kernel.target_loop);
    let (_, verdict, baseline) = seen
        .verdicts
        .iter()
        .find(|(id, _, _)| *id == target)
        .ok_or(format!("{}: no verdict for the target loop", kernel.name))?;
    let proven = verdict != VerdictKind::Serial.label();
    if *baseline || proven == carried(kernel) {
        return Err(format!(
            "{}: reported target verdict {verdict} (baseline {baseline})",
            kernel.name
        ));
    }
    if parallel_leg && threads >= 2 && !carried(kernel) && !seen.dispatched.contains(&target) {
        return Err(format!(
            "{}: target loop L{} not dispatched in the parallel leg",
            kernel.name, kernel.target_loop
        ));
    }
    Ok(())
}

/// Bit-for-bit equality with the reference heap.
pub fn same_heap(reference: &Heap, got: &Heap) -> Result<(), String> {
    if reference.scalars != got.scalars {
        return Err("scalars differ from the reference".to_string());
    }
    if reference.arrays.len() != got.arrays.len() {
        return Err("array set differs from the reference".to_string());
    }
    for (name, want) in &reference.arrays {
        match got.arrays.get(name) {
            Some(have) if have.dims == want.dims && have.data == want.data => {}
            Some(_) => return Err(format!("array '{name}' differs from the reference")),
            None => return Err(format!("array '{name}' missing")),
        }
    }
    Ok(())
}

/// FNV-1a over every name, extent and value of `heap`: equal heaps have
/// equal digests, and a differing heap collides with probability 2⁻⁶⁴.
pub fn heap_digest(heap: &Heap) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, v) in &heap.scalars {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&v.to_le_bytes());
    }
    for (name, a) in &heap.arrays {
        eat(name.as_bytes());
        eat(&[1]);
        for d in &a.dims {
            eat(&d.to_le_bytes());
        }
        for v in &a.data {
            eat(&v.to_le_bytes());
        }
    }
    h
}

fn array<'a>(heap: &'a Heap, name: &str) -> Result<&'a [i64], String> {
    heap.arrays
        .get(name)
        .map(|a| a.data.as_slice())
        .ok_or(format!("array '{name}' missing"))
}

fn scalar(heap: &Heap, name: &str) -> Result<i64, String> {
    heap.scalars
        .get(name)
        .copied()
        .ok_or(format!("scalar '{name}' missing"))
}

fn index(v: i64, len: usize, what: &str) -> Result<usize, String> {
    usize::try_from(v)
        .ok()
        .filter(|&i| i < len)
        .ok_or(format!("{what} index {v} out of range"))
}

/// Properties of the result that hold whatever the inputs:
/// * `fig9_csr_product`: `product_array[j] == value[j] * vector[j]` for
///   every stored entry `j < rowptr[ROWLEN]`;
/// * `sptrsv_levels`: `x` solves its unit lower-triangular system,
///   `x[i] == b[i] - Σ val[k] * x[col[k]]` over row `i`, with `col[k] < i`.
///
/// Arithmetic wraps, as in the mini-C semantics.  Other kernels have no
/// property check.
pub fn properties(kernel: &str, heap: &Heap) -> Result<(), String> {
    match kernel {
        "fig9_csr_product" => {
            let rows = scalar(heap, "ROWLEN")?;
            let rowptr = array(heap, "rowptr")?;
            let (value, vector, product) = (
                array(heap, "value")?,
                array(heap, "vector")?,
                array(heap, "product_array")?,
            );
            let nnz = rowptr[index(rows, rowptr.len(), "rowptr")?];
            let nnz = index(nnz, product.len() + 1, "product_array")?;
            if nnz > value.len() || nnz > vector.len() {
                return Err("fig9: fewer values than stored entries".to_string());
            }
            match (0..nnz).find(|&j| product[j] != value[j].wrapping_mul(vector[j])) {
                Some(j) => Err(format!(
                    "fig9: product_array[{j}] != value[{j}] * vector[{j}]"
                )),
                None => Ok(()),
            }
        }
        "sptrsv_levels" => {
            let n = scalar(heap, "n")?;
            let (rowptr, col, val, b, x) = (
                array(heap, "rowptr")?,
                array(heap, "col")?,
                array(heap, "val")?,
                array(heap, "b")?,
                array(heap, "x")?,
            );
            let n = index(n, rowptr.len(), "rowptr")?;
            for i in 0..n {
                let (lo, hi) = (rowptr[i], rowptr[i + 1]);
                let mut sum = b[index(i as i64, b.len(), "b")?];
                for k in lo..hi {
                    let k = index(k, col.len().min(val.len()), "col")?;
                    let c = index(col[k], i, "col (strictly lower)")?;
                    sum = sum.wrapping_sub(val[k].wrapping_mul(x[c]));
                }
                if x[index(i as i64, x.len(), "x")?] != sum {
                    return Err(format!("sptrsv: x[{i}] does not solve row {i}"));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// A CG solve reproduces the oracle's answer up to the rounding that a
/// different summation order (parallel partial sums) introduces: `zeta`
/// to a relative 1e-9, and the final residual norm — itself at rounding
/// level, about 1e-16 — to an absolute 1e-10.
pub fn cg(zeta: f64, rnorm: f64, want: &crate::cg::CgAnswer) -> Result<(), String> {
    if (zeta - want.zeta).abs() <= 1e-9 * want.zeta.abs() && (rnorm - want.rnorm).abs() <= 1e-10 {
        Ok(())
    } else {
        Err(format!(
            "CG: zeta {zeta} rnorm {rnorm}, oracle zeta {} rnorm {}",
            want.zeta, want.rnorm
        ))
    }
}

/// Feeds every check a correct and a corrupted output; returns a line for
/// each check that rejected the first or accepted the second.  `fig9` and
/// `sptrsv` are correct `(kernel, reference heap, report)` triples from the
/// run's set-up; `cg_answer` is the oracle's CG answer.
pub fn self_test(
    fig9: (&StudyKernel, &Heap, &ParallelizationReport),
    sptrsv: (&StudyKernel, &Heap, &ParallelizationReport),
    cg_answer: &crate::cg::CgAnswer,
) -> Vec<String> {
    let corrupt = |heap: &Heap, name: &str, at: usize| {
        let mut bad = heap.clone();
        if let Some(a) = bad.arrays.get_mut(name) {
            a.data[at] = a.data[at].wrapping_add(1);
        }
        bad
    };
    let (k9, h9, r9) = fig9;
    let (ks, hs, rs) = sptrsv;
    let target = LoopId(k9.target_loop);
    let seen = Observed {
        heap: h9.clone(),
        dispatched: vec![target],
        verdicts: vec![(target, "parallel".to_string(), false)],
    };

    // The uncorrupted outputs must pass, else the rejections prove nothing.
    let must_accept = [
        ("heap equality", same_heap(h9, h9)),
        ("fig9 property", properties(k9.name, h9)),
        ("sptrsv property", properties(ks.name, hs)),
        ("class verdict (proven class)", class_verdict(k9, r9)),
        ("class verdict (carried class)", class_verdict(ks, rs)),
        ("verdicts under renaming", same_verdicts(r9, r9)),
        ("execution", execution(k9, 2, true, &seen)),
        ("CG answer", cg(cg_answer.zeta, cg_answer.rnorm, cg_answer)),
    ];

    let mut extra = h9.clone();
    extra.scalars.insert("stray".to_string(), 1);
    let last = hs
        .arrays
        .get("x")
        .map_or(0, |a| a.data.len().saturating_sub(1));
    let mut flipped = r9.clone();
    for l in &mut flipped.loops {
        if l.loop_id == target {
            l.parallel = false;
            l.reductions.clear();
        }
    }
    let mut baseline = r9.clone();
    for l in &mut baseline.loops {
        l.baseline_parallel = true;
    }
    let mut unwaved = rs.clone();
    for l in &mut unwaved.loops {
        l.wavefront = None;
    }
    let undispatched = Observed {
        dispatched: Vec::new(),
        ..seen.clone()
    };
    let serial_verdict = Observed {
        verdicts: vec![(target, "serial".to_string(), false)],
        ..seen.clone()
    };
    let must_reject = [
        (
            "heap equality",
            same_heap(h9, &corrupt(h9, "product_array", 0)),
        ),
        ("heap equality (scalars)", same_heap(h9, &extra)),
        (
            "heap digest",
            if heap_digest(h9) == heap_digest(&corrupt(h9, "product_array", 0)) {
                Ok(())
            } else {
                Err(String::new())
            },
        ),
        (
            "fig9 property",
            properties(k9.name, &corrupt(h9, "product_array", 0)),
        ),
        (
            "sptrsv property",
            properties(ks.name, &corrupt(hs, "x", last)),
        ),
        ("class verdict (proven class)", class_verdict(k9, &flipped)),
        ("class verdict (baseline)", class_verdict(k9, &baseline)),
        ("class verdict (carried class)", class_verdict(ks, &unwaved)),
        ("verdicts under renaming", same_verdicts(r9, &flipped)),
        ("target dispatch", execution(k9, 2, true, &undispatched)),
        ("reported verdict", execution(k9, 2, true, &serial_verdict)),
        (
            "CG answer (zeta)",
            cg(cg_answer.zeta * (1.0 + 1e-6), cg_answer.rnorm, cg_answer),
        ),
        (
            "CG answer (residual)",
            cg(cg_answer.zeta, cg_answer.rnorm + 1e-9, cg_answer),
        ),
    ];

    let mut broken = Vec::new();
    for (what, result) in must_accept {
        if let Err(e) = result {
            broken.push(format!("{what} rejected a correct output: {e}"));
        }
    }
    for (what, result) in must_reject {
        if result.is_ok() {
            broken.push(format!("{what} accepted a corrupted output"));
        }
    }
    broken
}
