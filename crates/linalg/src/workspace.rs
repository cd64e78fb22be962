//! Reusable buffer pools for the zero-allocation hot path.
//!
//! Every steady-state training/serving step used to re-allocate its
//! intermediates — im2col column matrices, matmul outputs, layer
//! activations, quantization buffers — on every layer of every batch.
//! Once the arithmetic itself is fast (delayed-reduction kernels,
//! pipelined lanes), allocator pressure, page faults and cache-cold
//! buffers dominate. A [`Workspace`] fixes that: it is a per-owner
//! (per TEE lane, per GPU worker, per [`Tensor`]-model) pool of `Vec`
//! buffers that callers *take* for the duration of an operation and
//! *give* back when done. After one warm-up step the same buffer
//! multiset cycles every step, so the steady state performs **zero heap
//! allocations** (asserted by the counting-allocator regression tests).
//!
//! Design rules:
//!
//! * A workspace is plain mutable state owned by exactly one execution
//!   lane — no locks, no sharing.
//! * Taking a buffer never changes numerical results: `take_zeroed`
//!   hands back exactly what `vec![T::zero(); len]` would, and
//!   `take_copy` what `slice.to_vec()` would. Exactness is a kernel
//!   property, not a buffer-provenance property.
//! * Buffers of any `Send + 'static` element live in one pool keyed by
//!   `TypeId`, so a single workspace serves `f32` activations, field
//!   vectors, and index buffers alike.
//! * [`WorkspaceStats`] tracks takes, misses (takes that had to touch
//!   the allocator) and the high-water mark of checked-out bytes, so
//!   regressions show up in `dk_bench --alloc` instead of in a heap
//!   profiler.

use crate::scalar::Scalar;
use crate::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's `(allocations, bytes requested)`. Const-initialized
    /// and without a destructor, so the allocator can touch it at any
    /// point of a thread's life without allocating or registering
    /// anything.
    static THREAD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Books one allocation of `bytes`, process-wide and for this thread.
#[inline]
fn count_alloc(bytes: usize) {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    GLOBAL_ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // A thread past its thread-local teardown is not one a test reads.
    let _ = THREAD_ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// A counting wrapper around the system allocator — the enforcement
/// tool for the zero-allocation invariant. Test binaries and `dk_bench`
/// install it with `#[global_allocator]` and read [`alloc_counts`]
/// (the whole process) or [`thread_alloc_counts`] (the calling thread
/// alone: what a `#[test]` wants, since the harness's own threads
/// allocate beside it); one shared implementation keeps every
/// measurement surface (the CI alloc gate, the regression tests)
/// counting identically. The relaxed atomics and the thread-local bump
/// cost nothing measurable next to the kernels under test.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was given; the counting touches
// only atomics and a destructor-less thread-local, and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller's `realloc` contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` recorded by an installed
/// [`CountingAllocator`] since process start, on every thread.
pub fn alloc_counts() -> (u64, u64) {
    (GLOBAL_ALLOCS.load(Ordering::Relaxed), GLOBAL_ALLOC_BYTES.load(Ordering::Relaxed))
}

/// `(allocations, bytes requested)` the **calling thread** has made
/// through an installed [`CountingAllocator`]. Unlike [`alloc_counts`]
/// it cannot be moved by another thread — libtest's main thread
/// allocates while a `#[test]` runs — so a single-lane zero-allocation
/// assertion should difference this one.
pub fn thread_alloc_counts() -> (u64, u64) {
    THREAD_ALLOCS.with(Cell::get)
}

/// Allocation-behaviour counters of one [`Workspace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffers handed out in total.
    pub takes: u64,
    /// Takes that had to allocate a buffer (cold pool). After
    /// warm-up this counter must stop moving — that is the
    /// zero-allocation invariant.
    pub misses: u64,
    /// Bytes currently checked out of the pool.
    pub live_bytes: usize,
    /// High-water mark of checked-out bytes.
    pub peak_bytes: usize,
}

/// A pool of reusable `Vec` buffers (see module docs).
#[derive(Default)]
pub struct Workspace {
    /// Every pool, boxed and type-erased, keyed by its own type: a
    /// `Vec<Vec<T>>` of buffers per element type, and a
    /// `Vec<Arc<Tensor<T>>>` of emptied, uniquely held `Arc`s whose
    /// allocations [`Workspace::share`] reuses. The vecs keep their
    /// capacity across take/give cycles, so the steady state never
    /// touches the allocator.
    pools: HashMap<TypeId, Box<dyn Any + Send>>,
    /// Recycled tensor shape vectors (small, but a `Vec<usize>` per
    /// tensor per layer per batch is still an allocation).
    shapes: Vec<Vec<usize>>,
    stats: WorkspaceStats,
}

/// Cloning a workspace yields a fresh, empty pool: pooled buffers are
/// per-owner scratch with no semantic content, so a cloned owner (a
/// forked worker, a copied model) warms up its own pool.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("pools", &self.pools.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Workspace {
    /// Creates an empty workspace. Allocation-free until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocation counters so far.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// The pool of type `V`, created empty on first use.
    #[allow(clippy::expect_used, reason = "an entry is keyed by the type it was created as")]
    fn pool<V: Default + Send + 'static>(&mut self) -> &mut V {
        self.pools
            .entry(TypeId::of::<V>())
            .or_insert_with(|| Box::new(V::default()))
            .downcast_mut::<V>()
            .expect("the pool under `TypeId::of::<V>()` is a `V`")
    }

    /// Pops the best-fitting pooled buffer: the smallest whose capacity
    /// covers `len`, else a fresh allocation (a miss). Returned with
    /// whatever its previous user left in it.
    ///
    /// A miss leaves the smaller pooled buffers for smaller takes rather
    /// than growing one: growing moves the buffer and frees its old
    /// block, and blocks freed mid-step let the allocator hand pages
    /// back to the OS that the same cold step then faults in again.
    fn pop_buffer<T: Send + 'static>(&mut self, len: usize) -> Vec<T> {
        self.stats.takes += 1;
        let pool = self.pool::<Vec<Vec<T>>>();
        let mut best: Option<usize> = None;
        for (i, b) in pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < pool[j].capacity()) {
                best = Some(i);
            }
        }
        let buf = match best {
            Some(i) => pool.swap_remove(i),
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(len)
            }
        };
        self.stats.live_bytes += buf.capacity() * std::mem::size_of::<T>();
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        buf
    }

    /// Takes a buffer of exactly `len` elements, all `T::zero()` —
    /// bit-identical to `vec![T::zero(); len]`.
    pub fn take_zeroed<T: Scalar>(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.pop_buffer::<T>(len);
        buf.clear();
        buf.resize(len, T::zero());
        buf
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** (whatever the buffer's previous user left, zero where
    /// it had to grow) — for destinations a kernel overwrites in full.
    /// In the steady state the same buffers cycle at the same lengths,
    /// so this touches no memory at all.
    pub fn take_dirty<T: Scalar>(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.pop_buffer::<T>(len);
        buf.resize(len, T::zero());
        buf
    }

    /// Takes an *empty* buffer with capacity for at least `cap`
    /// elements (for `push`/`extend` fills — quantization, stacking).
    pub fn take_cleared<T: Send + 'static>(&mut self, cap: usize) -> Vec<T> {
        let mut buf = self.pop_buffer::<T>(cap);
        buf.clear();
        buf
    }

    /// Takes a buffer holding a copy of `src` — bit-identical to
    /// `src.to_vec()`, single write pass.
    pub fn take_copy<T: Copy + Send + 'static>(&mut self, src: &[T]) -> Vec<T> {
        let mut buf = self.pop_buffer::<T>(src.len());
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give<T: Send + 'static>(&mut self, buf: Vec<T>) {
        self.stats.live_bytes =
            self.stats.live_bytes.saturating_sub(buf.capacity() * std::mem::size_of::<T>());
        if buf.capacity() > 0 {
            self.pool::<Vec<Vec<T>>>().push(buf);
        }
    }

    fn pop_shape(&mut self, shape: &[usize]) -> Vec<usize> {
        let mut s = self.shapes.pop().unwrap_or_default();
        s.clear();
        s.extend_from_slice(shape);
        s
    }

    /// Takes a recycled shape vector holding a copy of `shape` — for
    /// callers assembling tensors with [`Tensor::from_parts`] from
    /// buffers that did not come out of this pool.
    pub fn take_shape(&mut self, shape: &[usize]) -> Vec<usize> {
        self.pop_shape(shape)
    }

    /// Returns a shape vector to the pool.
    pub fn give_shape(&mut self, shape: Vec<usize>) {
        if shape.capacity() > 0 {
            self.shapes.push(shape);
        }
    }

    /// Takes a zeroed tensor of the given shape — bit-identical to
    /// [`Tensor::zeros`]. Both the data buffer and the shape vector come
    /// from the pool.
    pub fn take_tensor<T: Scalar>(&mut self, shape: &[usize]) -> Tensor<T> {
        let len = shape.iter().product();
        let data = self.take_zeroed::<T>(len);
        Tensor::from_parts(self.pop_shape(shape), data)
    }

    /// Takes a tensor of the given shape with **unspecified contents**
    /// (see [`Workspace::take_dirty`]) — for outputs a kernel overwrites
    /// in full.
    pub fn take_tensor_dirty<T: Scalar>(&mut self, shape: &[usize]) -> Tensor<T> {
        let data = self.take_dirty::<T>(shape.iter().product());
        Tensor::from_parts(self.pop_shape(shape), data)
    }

    /// Takes a tensor of the given shape holding a copy of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the shape volume.
    pub fn take_tensor_copy<T: Scalar>(&mut self, shape: &[usize], src: &[T]) -> Tensor<T> {
        let data = self.take_copy(src);
        Tensor::from_parts(self.pop_shape(shape), data)
    }

    /// Returns a tensor's buffers (data and shape) to the pool.
    pub fn give_tensor<T: Scalar>(&mut self, t: Tensor<T>) {
        let (shape, data) = t.into_parts();
        if shape.capacity() > 0 {
            self.shapes.push(shape);
        }
        self.give(data);
    }

    /// `Arc::new(t)`, with the `Arc`'s own allocation taken from the
    /// pool when [`Workspace::give_shared`] has left one there.
    pub fn share<T: Scalar>(&mut self, t: Tensor<T>) -> Arc<Tensor<T>> {
        self.stats.takes += 1;
        if let Some(mut arc) = self.pool::<Vec<Arc<Tensor<T>>>>().pop() {
            // Always unique: the pool keeps only `Arc`s it was handed
            // as the last reference, and never hands out a second one.
            if let Some(slot) = Arc::get_mut(&mut arc) {
                *slot = t;
                return arc;
            }
        }
        self.stats.misses += 1;
        Arc::new(t)
    }

    /// Returns a shared tensor to the pool if `t` is its last reference:
    /// the tensor's buffers as [`Workspace::give_tensor`] does, the
    /// emptied `Arc` for [`Workspace::share`]. Any other reference just
    /// drops — the tensor is still someone else's.
    pub fn give_shared<T: Scalar>(&mut self, mut t: Arc<Tensor<T>>) {
        if let Some(slot) = Arc::get_mut(&mut t) {
            let inner = std::mem::take(slot);
            self.give_tensor(inner);
            self.pool::<Vec<Arc<Tensor<T>>>>().push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::F25;

    #[test]
    fn take_zeroed_matches_vec_macro() {
        let mut ws = Workspace::new();
        let b: Vec<f32> = ws.take_zeroed(5);
        assert_eq!(b, vec![0.0f32; 5]);
        let q: Vec<F25> = ws.take_zeroed(3);
        assert_eq!(q, vec![F25::ZERO; 3]);
    }

    #[test]
    fn buffers_are_recycled_without_misses() {
        let mut ws = Workspace::new();
        let b: Vec<f32> = ws.take_zeroed(100);
        ws.give(b);
        let before = ws.stats().misses;
        for _ in 0..10 {
            let b: Vec<f32> = ws.take_zeroed(100);
            ws.give(b);
            let c: Vec<f32> = ws.take_copy(&[1.0, 2.0]);
            ws.give(c);
        }
        assert_eq!(ws.stats().misses, before, "warm pool must not miss");
        assert!(ws.stats().takes >= 21);
    }

    /// A take no pooled buffer covers allocates a fresh one and leaves
    /// the smaller buffer pooled, unmoved, for the next small take.
    #[test]
    fn a_miss_leaves_smaller_buffers_pooled() {
        let mut ws = Workspace::new();
        let small: Vec<f32> = ws.take_dirty(10);
        let (ptr, cap) = (small.as_ptr(), small.capacity());
        ws.give(small);
        let big: Vec<f32> = ws.take_dirty(1000);
        assert_eq!(ws.stats().misses, 2);
        assert_ne!(big.as_ptr(), ptr);
        let again: Vec<f32> = ws.take_dirty(8);
        assert_eq!((again.as_ptr(), again.capacity()), (ptr, cap));
        assert_eq!(ws.stats().misses, 2, "the small buffer was still pooled");
        ws.give(big);
        ws.give(again);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let big: Vec<f32> = ws.take_zeroed(1000);
        let small: Vec<f32> = ws.take_zeroed(10);
        let (bigcap, smallcap) = (big.capacity(), small.capacity());
        ws.give(big);
        ws.give(small);
        let got: Vec<f32> = ws.take_zeroed(8);
        assert_eq!(got.capacity(), smallcap);
        let got2: Vec<f32> = ws.take_zeroed(500);
        assert_eq!(got2.capacity(), bigcap);
    }

    #[test]
    fn distinct_types_pool_independently() {
        let mut ws = Workspace::new();
        let f: Vec<f32> = ws.take_zeroed(4);
        let q: Vec<F25> = ws.take_zeroed(4);
        let idx: Vec<usize> = ws.take_cleared(4);
        ws.give(f);
        ws.give(q);
        ws.give(idx);
        // Each type gets its own buffer back.
        assert_eq!(ws.take_zeroed::<f32>(4).len(), 4);
        assert_eq!(ws.take_zeroed::<F25>(4).len(), 4);
        assert_eq!(ws.take_cleared::<usize>(4).capacity(), 4);
    }

    #[test]
    fn tensors_recycle_shape_and_data() {
        let mut ws = Workspace::new();
        let t: Tensor<f32> = ws.take_tensor(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        ws.give_tensor(t);
        let misses = ws.stats().misses;
        let t2: Tensor<f32> = ws.take_tensor_copy(&[3, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t2.shape(), &[3, 2]);
        assert_eq!(t2.get(&[0, 1]), 2.0);
        assert_eq!(ws.stats().misses, misses, "recycled tensor must not allocate");
        ws.give_tensor(t2);
    }

    #[test]
    fn shared_tensors_come_home_only_from_their_last_holder() {
        let mut ws = Workspace::new();
        let a = ws.share(Tensor::<f32>::from_vec(&[2], vec![1.0, 2.0]));
        let ptr = Arc::as_ptr(&a);
        // Still held elsewhere: the pool takes nothing.
        ws.give_shared(Arc::clone(&a));
        assert_eq!(ws.stats().misses, 1);
        ws.give_shared(a);
        let misses = ws.stats().misses;
        // The last holder's `Arc`, data and shape are all reused.
        let t = ws.take_tensor_copy(&[2], &[3.0, 4.0]);
        let b = ws.share(t);
        assert_eq!(Arc::as_ptr(&b), ptr);
        assert_eq!(b.as_slice(), &[3.0, 4.0]);
        assert_eq!(ws.stats().misses, misses, "a recycled shared tensor must not allocate");
    }

    #[test]
    fn peak_bytes_tracks_checkout_high_water() {
        let mut ws = Workspace::new();
        let a: Vec<f32> = ws.take_zeroed(100);
        let b: Vec<f32> = ws.take_zeroed(100);
        let peak = ws.stats().peak_bytes;
        assert!(peak >= 800);
        ws.give(a);
        ws.give(b);
        assert_eq!(ws.stats().live_bytes, 0);
        assert_eq!(ws.stats().peak_bytes, peak);
    }
}
