//! Batched GEMM — many independent small multiplies dispatched together.
//!
//! The paper's Figure-13 back transformation forms progressively larger `W`
//! blocks by merging pairs in parallel with batched GEMM; this module is the
//! CPU analogue of that cuBLAS batched call.

use crate::level3::{gemm, Op};
use crate::threads::{run_tasks, Spans};
use tg_matrix::Mat;

/// One GEMM problem in a batch: `C ← α·op(A)·op(B) + β·C`.
pub struct GemmJob<'a> {
    pub alpha: f64,
    pub a: &'a Mat,
    pub op_a: Op,
    pub b: &'a Mat,
    pub op_b: Op,
    pub beta: f64,
    pub c: &'a mut Mat,
}

/// Executes every job in the batch across [`crate::threads::gemm_threads`]
/// workers.
///
/// With several workers the jobs run inside a parallel region (see
/// [`crate::threads`]), so the GEMM inside each job stays serial — the
/// parallelism budget is spent across the batch, not inside one member. A
/// single-job "batch" runs inline and keeps the full intra-GEMM fan-out.
pub fn gemm_batched(jobs: Vec<GemmJob<'_>>) {
    let spans = Spans {
        region: "parallel.gemm_batched",
        worker: "gemm.worker",
        task: "task.gemm_job",
    };
    let mut lanes = vec![(); crate::threads::gemm_threads()];
    run_tasks(spans, jobs, &mut lanes, |_, job| {
        let GemmJob {
            alpha,
            a,
            op_a,
            b,
            op_b,
            beta,
            c,
        } = job;
        gemm(
            alpha,
            &a.as_ref(),
            op_a,
            &b.as_ref(),
            op_b,
            beta,
            &mut c.as_mut(),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::gen;

    #[test]
    fn heterogeneous_jobs() {
        let a1 = gen::random(2, 2, 1);
        let b1 = gen::random(2, 2, 2);
        let mut c1 = Mat::zeros(2, 2);
        let a2 = gen::random(5, 3, 3);
        let b2 = gen::random(5, 3, 4);
        let mut c2 = Mat::zeros(3, 3);
        gemm_batched(vec![
            GemmJob {
                alpha: 1.0,
                a: &a1,
                op_a: Op::NoTrans,
                b: &b1,
                op_b: Op::NoTrans,
                beta: 0.0,
                c: &mut c1,
            },
            GemmJob {
                alpha: 2.0,
                a: &a2,
                op_a: Op::Trans,
                b: &b2,
                op_b: Op::NoTrans,
                beta: 0.0,
                c: &mut c2,
            },
        ]);
        let e1 =
            crate::level3::gemm_into(1.0, &a1.as_ref(), Op::NoTrans, &b1.as_ref(), Op::NoTrans);
        let e2 = crate::level3::gemm_into(2.0, &a2.as_ref(), Op::Trans, &b2.as_ref(), Op::NoTrans);
        for j in 0..2 {
            for i in 0..2 {
                assert!((c1[(i, j)] - e1[(i, j)]).abs() < 1e-13);
            }
        }
        for j in 0..3 {
            for i in 0..3 {
                assert!((c2[(i, j)] - e2[(i, j)]).abs() < 1e-13);
            }
        }
    }
}
