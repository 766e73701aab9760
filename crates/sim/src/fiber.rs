//! Stackful fibers for the event-loop rank runtime (x86_64).
//!
//! A fiber is a heap-allocated stack plus a saved stack pointer; switching
//! fibers is six callee-saved register pushes, a stack-pointer swap, six
//! pops and a `ret` (System V AMD64). Everything else a resumable rank
//! needs — locals, call frames, pending destructors — already lives on the
//! fiber's own stack, which is what lets the blocking `Rank`/`World` API
//! survive unchanged: a park point is simply a `switch_stacks` back to the
//! scheduler with the rank's whole call chain frozen in place.
//!
//! Scope notes:
//!
//! * x86_64 only: `lib.rs` refuses to compile the crate for other
//!   architectures. The switch saves rbx/rbp/r12–r15/rsp — the SysV
//!   callee-saved set. mxcsr and the x87 control word are not saved:
//!   nothing in this workspace (or in code the simulator can call) changes
//!   rounding modes mid-rank.
//! * Stacks are plain heap allocations with a canary word at the low end,
//!   checked on every return to the scheduler. malloc-backed stacks commit
//!   lazily, so thousands of mostly-idle ranks cost virtual address space,
//!   not resident memory. There is no guard page; the canary plus a
//!   generous fixed size (1 MiB per rank) stands in.

use std::alloc::{alloc, dealloc, Layout};

/// Written at the lowest address of every fiber stack; if a deep call
/// chain runs the stack down this far the scheduler panics instead of
/// silently corrupting the neighbouring allocation any further.
const STACK_CANARY: u64 = 0xf1be_c0de_dead_5afe;

/// Every fiber's stack size: 1 MiB of (lazily committed) address space.
pub(crate) const STACK_BYTES: usize = 1 << 20;

// `prepare` writes the initial register image below a 16-aligned top, and
// the canary sits at the base: both need a 16-multiple of at least a page.
const _: () = assert!(STACK_BYTES.is_multiple_of(16) && STACK_BYTES >= 4096);

/// A saved execution context: just the stack pointer. All register state
/// lives on the stack it points into.
#[repr(C)]
pub(crate) struct Context {
    pub sp: *mut u8,
}

impl Context {
    /// A context that must never be resumed (placeholder before `prepare`).
    pub fn null() -> Context {
        Context { sp: std::ptr::null_mut() }
    }
}

/// What a newly started fiber runs. The scheduler boxes one `Payload` per
/// rank at a stable address and threads the raw pointer through the
/// initial register image (see [`prepare`]).
pub(crate) struct Payload {
    /// The erased rank body; taken exactly once by `fiber_main`.
    pub run: Option<Box<dyn FnOnce()>>,
    /// Where `fiber_main` switches when the body returns: (slot to save
    /// the dying context into, scheduler context to resume).
    pub final_ctx: (*mut Context, *const Context),
}

/// Save the current context into `*save`, then resume `*restore`.
///
/// # Safety
/// `restore` must hold a stack pointer produced by [`prepare`] or by a
/// previous save through this function, on a stack that is still live.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch_stacks(save: *mut Context, restore: *const Context) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every fiber: the initial register image parks the
/// payload pointer in r12 and this trampoline's address as the `ret`
/// target, so the first `switch_stacks` into the fiber lands here with a
/// 16-byte-aligned stack and the payload in hand.
#[unsafe(naked)]
unsafe extern "C" fn fiber_entry() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {main}",
        // fiber_main never returns; landing here means a completed fiber
        // was resumed, which is a scheduler bug.
        "ud2",
        main = sym fiber_main,
    )
}

/// Body of every fiber. Runs the payload (which catches unwinds and does
/// all scheduler bookkeeping), then switches to the scheduler forever.
///
/// # Safety
/// Entered only through [`fiber_entry`], with the live payload pointer
/// that [`prepare`] placed in the fiber's initial register image.
unsafe extern "C" fn fiber_main(p: *mut Payload) -> ! {
    {
        // SAFETY: `p` is the boxed payload `prepare` threaded through r12;
        // the scheduler keeps it alive until the fiber is done.
        let payload = unsafe { &mut *p };
        let run = payload.run.take().expect("fiber started twice");
        // `run` is responsible for catching panics; letting one unwind out
        // of this extern "C" frame would abort the process.
        run();
    }
    // SAFETY: as above; the payload borrow has ended.
    let (save, host) = unsafe { (*p).final_ctx };
    // SAFETY: `host` is the scheduler context that resumed this fiber
    // last, and `save` is this fiber's own slot, never resumed again.
    unsafe { switch_stacks(save, host) };
    // A completed fiber must never be resumed.
    std::process::abort();
}

/// One fiber's stack: 16-aligned heap block, canary at the low end.
pub(crate) struct FiberStack {
    base: *mut u8,
    layout: Layout,
}

impl FiberStack {
    pub fn new() -> FiberStack {
        let layout = Layout::from_size_align(STACK_BYTES, 16).expect("fiber stack layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "fiber stack allocation failed ({STACK_BYTES} bytes)");
        // SAFETY: base is 16-aligned and at least 4096 bytes.
        unsafe { (base as *mut u64).write(STACK_CANARY) };
        FiberStack { base, layout }
    }

    /// False once a deep call chain has run the stack down to its lowest
    /// word — the best overflow detection available without guard pages.
    pub fn canary_ok(&self) -> bool {
        // SAFETY: base is live and holds the canary written in `new`.
        unsafe { (self.base as *const u64).read() == STACK_CANARY }
    }
}

impl Drop for FiberStack {
    fn drop(&mut self) {
        // SAFETY: base/layout come from the matching alloc in `new`.
        unsafe { dealloc(self.base, self.layout) };
    }
}

/// Build the initial context for a fresh fiber on `stack`: the first
/// switch into it `ret`s to [`fiber_entry`] with `payload` in r12.
pub(crate) fn prepare(stack: &FiberStack, payload: *mut Payload) -> Context {
    // SAFETY: the stack is a live allocation of `STACK_BYTES` (>= 4096,
    // a multiple of 16), so the seven words below its top are in bounds.
    unsafe {
        let top = stack.base.add(stack.layout.size());
        debug_assert_eq!(top as usize % 16, 0);
        // Register image, ascending from the saved stack pointer, matching
        // the pop order in `switch_stacks`: r15 r14 r13 r12 rbx rbp ret.
        // The ret slot sits at top-8 so `fiber_entry` starts 16-aligned.
        let sp = top.sub(7 * 8) as *mut u64;
        sp.add(0).write(0); // r15
        sp.add(1).write(0); // r14
        sp.add(2).write(0); // r13
        sp.add(3).write(payload as u64); // r12 -> fiber_entry's rdi
        sp.add(4).write(0); // rbx
        sp.add(5).write(0); // rbp
        sp.add(6).write(fiber_entry as *const () as usize as u64); // ret target
        Context { sp: sp as *mut u8 }
    }
}
