//! The eager tape-based reverse-mode autograd engine.
//!
//! Saved forward tensors live in shared [`Saved`] slots: a node's output
//! and the backward closures that need it reference one slot instead of
//! holding deep clones, so residency accounting measures real memory. When
//! a [`SpillPolicy`] is installed
//! ([`Tape::set_spill_policy`]), eligible slots hold a compressed byte
//! stream instead of the tensor and rematerialize on access.

use std::cell::RefCell;
use std::rc::Rc;

use aicomp_tensor::Tensor;

use crate::spill::SpillPolicy;

/// A trainable parameter: value + gradient accumulator, shared between the
/// layer that owns it, the tapes that use it, and the optimizer.
#[derive(Clone)]
pub struct Param(Rc<RefCell<ParamInner>>);

struct ParamInner {
    value: Tensor,
    grad: Tensor,
    name: String,
}

impl Param {
    /// New parameter from an initial value.
    pub fn new(value: Tensor, name: impl Into<String>) -> Self {
        let grad = Tensor::zeros(value.dims().to_vec());
        Param(Rc::new(RefCell::new(ParamInner { value, grad, name: name.into() })))
    }

    /// Snapshot of the current value.
    pub fn value(&self) -> Tensor {
        self.0.borrow().value.clone()
    }

    /// Snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.0.borrow().grad.clone()
    }

    /// Parameter name (diagnostics).
    pub fn name(&self) -> String {
        self.0.borrow().name.clone()
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.0.borrow().value.numel()
    }

    /// Zero the gradient accumulator.
    pub fn zero_grad(&self) {
        let mut inner = self.0.borrow_mut();
        inner.grad.map_inplace(|_| 0.0);
    }

    /// Accumulate into the gradient.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut inner = self.0.borrow_mut();
        inner.grad.axpy(1.0, g).expect("gradient shape matches parameter");
    }

    /// Apply an update: `value += delta`.
    pub fn apply_update(&self, delta: &Tensor) {
        let mut inner = self.0.borrow_mut();
        inner.value.axpy(1.0, delta).expect("update shape matches parameter");
    }
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.borrow();
        write!(f, "Param({} {:?})", inner.name, inner.value.dims())
    }
}

/// A node id on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node's index into [`Tape::backward`]'s gradient vector.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Backward function: given the node's output gradient, produce the
/// gradients of its parents (same order as `parents`).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

/// One saved tensor slot, shared between the tape node that produced it
/// and every backward closure that reads it. The slot either holds the
/// tensor live (behind an `Rc`, so sharing is free) or holds the
/// compressed byte stream a spill policy produced; reads of a spilled
/// slot rematerialize a transient copy through the policy's codec.
#[derive(Clone)]
pub struct Saved {
    slot: Rc<RefCell<Slot>>,
    policy: Option<Rc<RefCell<SpillPolicy>>>,
}

enum Slot {
    Live(Rc<Tensor>),
    Spilled { bytes: Vec<u8>, dims: Vec<usize> },
}

impl Saved {
    /// A live slot outside any spill policy.
    pub(crate) fn live(t: Tensor) -> Self {
        Saved { slot: Rc::new(RefCell::new(Slot::Live(Rc::new(t)))), policy: None }
    }

    /// A slot governed by `policy` (if any): eligible tensors are
    /// compressed immediately and keep only the stream resident.
    pub(crate) fn with_policy(t: Tensor, policy: Option<Rc<RefCell<SpillPolicy>>>) -> Self {
        let spilled = policy.as_ref().and_then(|p| p.borrow_mut().try_spill(&t));
        let slot = match spilled {
            Some(bytes) => Slot::Spilled { bytes, dims: t.dims().to_vec() },
            None => Slot::Live(Rc::new(t)),
        };
        Saved { slot: Rc::new(RefCell::new(slot)), policy }
    }

    /// Read the tensor: free for a live slot, one rematerialization
    /// (decompress through the policy's codec) for a spilled one.
    pub fn get(&self) -> Rc<Tensor> {
        let slot = self.slot.borrow();
        match &*slot {
            Slot::Live(t) => Rc::clone(t),
            Slot::Spilled { bytes, dims } => {
                let p = self.policy.as_ref().expect("spilled slots carry their policy");
                Rc::new(p.borrow_mut().restore(bytes, dims))
            }
        }
    }

    /// The tensor's dims, without rematerializing.
    pub fn dims(&self) -> Vec<usize> {
        match &*self.slot.borrow() {
            Slot::Live(t) => t.dims().to_vec(),
            Slot::Spilled { dims, .. } => dims.clone(),
        }
    }

    /// True when the slot holds a compressed stream, not the tensor.
    pub fn is_spilled(&self) -> bool {
        matches!(&*self.slot.borrow(), Slot::Spilled { .. })
    }
}

pub(crate) struct TapeNode {
    pub value: Saved,
    pub parents: Vec<usize>,
    pub backward: Option<BackwardFn>,
    /// Bound parameter (leaf) — backward accumulates here.
    pub param: Option<Param>,
}

/// The autograd tape: eager forward, recorded backward.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<TapeNode>,
    spill: Option<Rc<RefCell<SpillPolicy>>>,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new(), spill: None }
    }

    /// Install a spill policy: saved activations recorded *after* this
    /// call go through [`SpillPolicy::try_spill`]. Leaves (inputs and
    /// parameters) are never spilled.
    pub fn set_spill_policy(&mut self, p: Rc<RefCell<SpillPolicy>>) {
        self.spill = Some(p);
    }

    /// The installed spill policy, if any.
    pub fn spill_policy(&self) -> Option<Rc<RefCell<SpillPolicy>>> {
        self.spill.clone()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value of a var (rematerializes if the slot was spilled).
    pub fn value(&self, v: Var) -> Rc<Tensor> {
        self.nodes[v.0].value.get()
    }

    /// The shared saved-slot handle for a var — what backward closures
    /// capture instead of deep tensor clones.
    pub(crate) fn saved(&self, v: Var) -> Saved {
        self.nodes[v.0].value.clone()
    }

    /// Put a forward-derived tensor (im2col columns, cached softmax
    /// probabilities, …) under the same spill policy as node outputs.
    pub(crate) fn stash(&self, t: Tensor) -> Saved {
        Saved::with_policy(t, self.spill.clone())
    }

    pub(crate) fn push(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        // Leaves stay live; only computed activations are spill-eligible.
        let value = if parents.is_empty() {
            Saved::live(value)
        } else {
            Saved::with_policy(value, self.spill.clone())
        };
        self.nodes.push(TapeNode { value, parents, backward, param: None });
        Var(self.nodes.len() - 1)
    }

    /// Constant leaf: data with no gradient.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, vec![], None)
    }

    /// Parameter leaf: backward accumulates into the param's grad.
    pub fn param(&mut self, p: &Param) -> Var {
        let value = Saved::live(p.value());
        self.nodes.push(TapeNode {
            value,
            parents: vec![],
            backward: None,
            param: Some(p.clone()),
        });
        Var(self.nodes.len() - 1)
    }

    // ---------- elementwise / structural ops ----------

    /// `a + b` (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(&self.value(b)).expect("add shapes");
        self.push(v, vec![a.0, b.0], Some(Box::new(|g: &Tensor| vec![g.clone(), g.clone()])))
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(&self.value(b)).expect("sub shapes");
        self.push(v, vec![a.0, b.0], Some(Box::new(|g: &Tensor| vec![g.clone(), g.scale(-1.0)])))
    }

    /// Hadamard `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let sa = self.saved(a);
        let sb = self.saved(b);
        let v = sa.get().mul(&sb.get()).expect("mul shapes");
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                vec![g.mul(&sb.get()).expect("shapes"), g.mul(&sa.get()).expect("shapes")]
            })),
        )
    }

    /// `a * k` for scalar `k`.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let v = self.value(a).scale(k);
        self.push(v, vec![a.0], Some(Box::new(move |g: &Tensor| vec![g.scale(k)])))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let sa = self.saved(a);
        let v = sa.get().map(|x| x.max(0.0));
        self.push(
            v,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mask = sa.get().map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                vec![g.mul(&mask).expect("shapes")]
            })),
        )
    }

    /// Leaky ReLU with slope `alpha` for negatives.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let sa = self.saved(a);
        let v = sa.get().map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(
            v,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mask = sa.get().map(|x| if x > 0.0 { 1.0 } else { alpha });
                vec![g.mul(&mask).expect("shapes")]
            })),
        )
    }

    /// Sigmoid. Backward reads the node's own output through its shared
    /// slot, so no second copy of the activation is held.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let out = self.push(v, vec![a.0], None);
        let saved = self.saved(out);
        self.nodes[out.0].backward = Some(Box::new(move |g: &Tensor| {
            let d = saved.get().map(|s| s * (1.0 - s));
            vec![g.mul(&d).expect("shapes")]
        }));
        out
    }

    /// Tanh. Like [`Tape::sigmoid`], backward shares the output's slot.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.tanh());
        let out = self.push(v, vec![a.0], None);
        let saved = self.saved(out);
        self.nodes[out.0].backward = Some(Box::new(move |g: &Tensor| {
            let d = saved.get().map(|t| 1.0 - t * t);
            vec![g.mul(&d).expect("shapes")]
        }));
        out
    }

    /// Reshape (gradient reshapes back).
    pub fn reshape(&mut self, a: Var, dims: Vec<usize>) -> Var {
        let from = self.value(a).dims().to_vec();
        let v = self.value(a).reshape(dims).expect("reshape count");
        self.push(
            v,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| vec![g.reshape(from.clone()).expect("reshape back")])),
        )
    }

    /// Mean over all elements → scalar `[1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).numel() as f32;
        let dims = self.value(a).dims().to_vec();
        let v = Tensor::from_vec(vec![self.value(a).mean() as f32], [1usize]).expect("scalar");
        self.push(
            v,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let gv = g.data()[0] / n;
                vec![Tensor::full(dims.clone(), gv)]
            })),
        )
    }

    // ---------- linear algebra ----------

    /// 2-D matmul: `a [m,k] · b [k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let sa = self.saved(a);
        let sb = self.saved(b);
        let v = sa.get().matmul(&sb.get()).expect("matmul shapes");
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                let da = g.matmul(&sb.get().transpose().expect("2d")).expect("shapes");
                let db = sa.get().transpose().expect("2d").matmul(g).expect("shapes");
                vec![da, db]
            })),
        )
    }

    /// Linear layer op: `x [m,k] · w [k,n] + bias [n]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let sx = self.saved(x);
        let sw = self.saved(w);
        let bv = self.value(b);
        let mut v = sx.get().matmul(&sw.get()).expect("linear shapes");
        let (m, n) = (v.dims()[0], v.dims()[1]);
        {
            let data = v.data_mut();
            for r in 0..m {
                for c in 0..n {
                    data[r * n + c] += bv.data()[c];
                }
            }
        }
        self.push(
            v,
            vec![x.0, w.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                let dx = g.matmul(&sw.get().transpose().expect("2d")).expect("shapes");
                let dw = sx.get().transpose().expect("2d").matmul(g).expect("shapes");
                let n = g.dims()[1];
                let mut db = vec![0.0f32; n];
                for row in g.data().chunks_exact(n) {
                    for (acc, &gv) in db.iter_mut().zip(row.iter()) {
                        *acc += gv;
                    }
                }
                vec![dx, dw, Tensor::from_vec(db, [n]).expect("bias grad")]
            })),
        )
    }

    // ---------- backward ----------

    /// Run the backward pass from a scalar loss var, accumulating parameter
    /// gradients into their [`Param`] handles. Returns the gradients of all
    /// nodes (for tests/inspection).
    pub fn backward(&mut self, loss: Var) -> Vec<Option<Tensor>> {
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        let seed = Tensor::ones(self.nodes[loss.0].value.dims());
        grads[loss.0] = Some(seed);

        for i in (0..n).rev() {
            let Some(g) = grads[i].clone() else { continue };
            if let Some(p) = &self.nodes[i].param {
                p.accumulate_grad(&g);
            }
            let Some(backward) = &self.nodes[i].backward else { continue };
            let parent_grads = backward(&g);
            debug_assert_eq!(parent_grads.len(), self.nodes[i].parents.len());
            let parents = self.nodes[i].parents.clone();
            for (pidx, pg) in parents.into_iter().zip(parent_grads) {
                match &mut grads[pidx] {
                    Some(acc) => acc.axpy(1.0, &pg).expect("gradient shapes agree"),
                    slot => *slot = Some(pg),
                }
            }
        }
        grads
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    use super::*;

    /// Numerical gradient of `f` at `x` via central differences.
    pub fn numerical_grad(f: &dyn Fn(&Tensor) -> f64, x: &Tensor, eps: f32) -> Tensor {
        let mut g = Tensor::zeros(x.dims().to_vec());
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            g.data_mut()[i] = ((f(&xp) - f(&xm)) / (2.0 * eps as f64)) as f32;
        }
        g
    }

    /// Check the autograd gradient of `build` (maps a leaf var to a scalar
    /// loss var) against central differences at `x`.
    pub fn check(build: &dyn Fn(&mut Tape, Var) -> Var, x: &Tensor, tol: f32) {
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let loss = build(&mut tape, xv);
        assert_eq!(tape.value(loss).numel(), 1, "loss must be scalar");
        let grads = tape.backward(loss);
        let auto = grads[xv.0].clone().expect("input reached by backward");

        let f = |t: &Tensor| {
            let mut tp = Tape::new();
            let v = tp.input(t.clone());
            let l = build(&mut tp, v);
            tp.value(l).data()[0] as f64
        };
        let numeric = numerical_grad(&f, x, 1e-3);
        for i in 0..x.numel() {
            let (a, n) = (auto.data()[i], numeric.data()[i]);
            let denom = 1.0f32.max(a.abs()).max(n.abs());
            assert!((a - n).abs() / denom < tol, "grad mismatch at {i}: auto {a} vs numeric {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gradcheck::check;
    use super::*;

    fn sample(n: usize, seed: u64) -> Tensor {
        let mut rng = Tensor::seeded_rng(seed);
        Tensor::rand_uniform([n], -1.5, 1.5, &mut rng)
    }

    #[test]
    fn param_roundtrip() {
        let p = Param::new(Tensor::ones([2, 2]), "w");
        assert_eq!(p.numel(), 4);
        p.accumulate_grad(&Tensor::full([2, 2], 0.5));
        assert_eq!(p.grad().data(), &[0.5; 4]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0; 4]);
        p.apply_update(&Tensor::full([2, 2], -1.0));
        assert_eq!(p.value().data(), &[0.0; 4]);
    }

    #[test]
    fn add_mul_grads() {
        let x = sample(6, 1);
        check(
            &|t, v| {
                let doubled = t.scale(v, 2.0);
                let sum = t.add(v, doubled);
                let sq = t.mul(sum, sum);
                t.mean_all(sq)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn relu_grad() {
        let x = sample(8, 2).add_scalar(0.05); // keep away from the kink
        check(
            &|t, v| {
                let r = t.relu(v);
                t.mean_all(r)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn leaky_relu_sigmoid_tanh_grads() {
        let x = sample(8, 3).add_scalar(0.07);
        check(
            &|t, v| {
                let a = t.leaky_relu(v, 0.1);
                let b = t.sigmoid(a);
                let c = t.tanh(b);
                t.mean_all(c)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn matmul_grad() {
        let x = sample(6, 4);
        check(
            &|t, v| {
                let m = t.reshape(v, vec![2, 3]);
                let w = t.input(
                    Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0, 1.0, -0.5], [3, 2]).unwrap(),
                );
                let y = t.matmul(m, w);
                let sq = t.mul(y, y);
                t.mean_all(sq)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn linear_bias_grad() {
        // Check gradient w.r.t. the bias through a Param handle.
        let w = Param::new(Tensor::from_vec(vec![1.0, -0.5, 0.5, 2.0], [2, 2]).unwrap(), "w");
        let b = Param::new(Tensor::from_vec(vec![0.1, -0.2], [2]).unwrap(), "b");
        let x = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], [2, 2]).unwrap();

        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let wv = tape.param(&w);
        let bv = tape.param(&b);
        let y = tape.linear(xv, wv, bv);
        let sq = tape.mul(y, y);
        let loss = tape.mean_all(sq);
        tape.backward(loss);

        // Numerical check for the bias.
        let f = |bval: &Tensor| {
            let y = x.matmul(&w.value()).unwrap();
            let mut v = y.clone();
            let n = v.dims()[1];
            let data = v.data_mut();
            for r in 0..2 {
                for c in 0..n {
                    data[r * n + c] += bval.data()[c];
                }
            }
            v.data().iter().map(|&q| (q as f64) * (q as f64)).sum::<f64>() / v.numel() as f64
        };
        let numeric = super::gradcheck::numerical_grad(&f, &b.value(), 1e-3);
        let auto = b.grad();
        for i in 0..2 {
            assert!((auto.data()[i] - numeric.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn grad_accumulates_across_fanout() {
        // y = x + x → dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.input(Tensor::ones([3]));
        let y = tape.add(x, x);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        let gx = grads[x.0].as_ref().unwrap();
        for &g in gx.data() {
            assert!((g - 2.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn params_accumulate_until_zeroed() {
        let p = Param::new(Tensor::ones([2]), "p");
        for _ in 0..2 {
            let mut tape = Tape::new();
            let v = tape.param(&p);
            let loss = tape.mean_all(v);
            tape.backward(loss);
        }
        assert!((p.grad().data()[0] - 1.0).abs() < 1e-6); // 2 × 0.5
    }

    #[test]
    fn lossless_spill_policy_is_invisible_to_training() {
        // The same graph with and without an EBPC spill policy must
        // produce bit-identical values and gradients — EBPC's byte
        // stream is lossless.
        use crate::spill::SpillPolicy;
        use aicomp_core::CodecSpec;

        let x = sample(128, 21);
        let run = |spill: bool| {
            let mut tape = Tape::new();
            if spill {
                let codec = CodecSpec::Ebpc { len: 64 }.build().unwrap();
                tape.set_spill_policy(Rc::new(RefCell::new(SpillPolicy::new(codec, 16))));
            }
            let v = tape.input(x.clone());
            let m = tape.reshape(v, vec![16, 8]);
            let w = tape.input(Tensor::full([8, 8], 0.25));
            let y = tape.matmul(m, w);
            let s = tape.sigmoid(y);
            let q = tape.mul(s, s);
            let loss = tape.mean_all(q);
            let loss_val = tape.value(loss).data()[0];
            let grads = tape.backward(loss);
            let ledger = tape.spill_policy().map(|p| p.borrow().ledger());
            (loss_val, grads[v.0].clone().unwrap(), ledger)
        };
        let (l0, g0, _) = run(false);
        let (l1, g1, ledger) = run(true);
        assert_eq!(l0.to_bits(), l1.to_bits());
        let a: Vec<u32> = g0.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = g1.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        let ledger = ledger.unwrap();
        assert!(ledger.spilled_tensors > 0, "activations were spilled");
        assert!(ledger.remats > 0, "backward rematerialized them");
    }

    #[test]
    fn leaves_are_never_spilled() {
        use crate::spill::SpillPolicy;
        use aicomp_core::CodecSpec;

        let mut tape = Tape::new();
        let codec = CodecSpec::Ebpc { len: 64 }.build().unwrap();
        tape.set_spill_policy(Rc::new(RefCell::new(SpillPolicy::new(codec, 1))));
        let x = tape.input(sample(256, 22));
        let p = Param::new(sample(256, 23), "w");
        let pv = tape.param(&p);
        assert!(!tape.saved(x).is_spilled());
        assert!(!tape.saved(pv).is_spilled());
        let y = tape.add(x, pv);
        assert!(tape.saved(y).is_spilled(), "computed activation spills");
    }

    #[test]
    fn sub_and_reshape_grads() {
        let x = sample(4, 9);
        check(
            &|t, v| {
                let r = t.reshape(v, vec![2, 2]);
                let k = t.input(Tensor::full([2, 2], 0.3));
                let d = t.sub(r, k);
                let sq = t.mul(d, d);
                t.mean_all(sq)
            },
            &x,
            1e-2,
        );
    }
}
