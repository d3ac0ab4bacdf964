//! The engine-agnostic machine core: process, scheduler, fault and
//! syscall state, shared by both execution tiers.
//!
//! The actual instruction execution lives in two sibling modules with
//! identical observable behaviour: [`crate::exec`] (the
//! deliberately-plain decode-dispatch interpreter, the oracle) and
//! [`crate::block`] (the block-compiled tier). [`MachineConfig::engine`]
//! selects between them.

use crate::block::CompiledImage;
use crate::hook::{ExecHook, NullHook};
use crate::sink::TraceSink;
use crate::{checksum_words, PRIVATE_DATA_STRIDE};
use codelayout_ir::{BlockId, Image, ProcId, Reg};
pub use codelayout_obs::VmEngine;
use std::sync::Arc;

/// The single register-file indexing rule: 32 registers, index masked
/// so a malformed [`Reg`] wraps instead of panicking. Every operand
/// decode — interpreter and compiled tier alike — goes through this, so
/// the two engines cannot diverge on register addressing.
#[inline(always)]
pub(crate) fn reg_idx(r: Reg) -> usize {
    r.index() & 31
}

/// Reads register `r`. See [`reg_idx`].
#[inline(always)]
pub(crate) fn rget(regs: &[i64; 32], r: Reg) -> i64 {
    regs[reg_idx(r)]
}

/// Writes register `r`. See [`reg_idx`].
#[inline(always)]
pub(crate) fn rset(regs: &mut [i64; 32], r: Reg, v: i64) {
    regs[reg_idx(r)] = v;
}

/// Kernel service routine bound to a syscall code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallDef {
    /// Kernel procedure implementing the service.
    pub proc: ProcId,
    /// Instructions the process stays blocked after the handler returns
    /// (models I/O latency); `0` means non-blocking.
    pub block_instrs: u64,
}

/// Machine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of simulated CPUs; processes are statically assigned
    /// round-robin (`pid % num_cpus`).
    pub num_cpus: usize,
    /// Server processes per CPU (the paper uses 8).
    pub processes_per_cpu: usize,
    /// Scheduling quantum in instructions.
    pub quantum: u64,
    /// Words of per-process private memory (rounded up to a power of two).
    pub private_words: usize,
    /// Words of shared memory (rounded up to a power of two).
    pub shared_words: usize,
    /// Call-stack depth limit per mode.
    pub max_call_depth: usize,
    /// Kernel procedure executed on every context switch (scheduler code),
    /// when a kernel image is attached.
    pub sched_proc: Option<ProcId>,
    /// Execution tier. The default honours `CODELAYOUT_VM_ENGINE`
    /// (falling back to [`VmEngine::Block`]), so a whole process —
    /// including the test suite — can be flipped to the interpreter
    /// oracle from the environment. Fixed at machine construction.
    pub engine: VmEngine,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cpus: 1,
            processes_per_cpu: 1,
            quantum: 10_000,
            private_words: 1 << 16,
            shared_words: 1 << 20,
            max_call_depth: 512,
            sched_proc: None,
            engine: codelayout_obs::run_env().vm_engine,
        }
    }
}

/// Why a process stopped making progress permanently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Program counter left the text segment.
    PcOutOfRange,
    /// Call stack exceeded [`MachineConfig::max_call_depth`].
    CallDepthExceeded,
    /// `Syscall` executed while already in kernel mode.
    SyscallInKernel,
    /// `Syscall` with a code that has no kernel binding (and a kernel image
    /// is attached).
    UnknownSyscall(u16),
    /// Kernel `Return` executed with no kernel image attached.
    KernelStateCorrupt,
}

/// Aggregate outcome of a [`Machine::run`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Total executed instructions (user + kernel).
    pub instructions: u64,
    /// Instructions executed in user mode.
    pub user_instrs: u64,
    /// Instructions executed in kernel mode.
    pub kernel_instrs: u64,
    /// Idle "instruction slots" spent with every process blocked.
    pub idle_instrs: u64,
    /// Syscalls dispatched to the kernel (or emulated when no kernel).
    pub syscalls: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Processes that halted normally.
    pub halted_processes: usize,
    /// Faulted processes and their faults.
    pub faults: Vec<(u8, Fault)>,
}

impl RunReport {
    /// Accumulates another report into this one (for chunked runs).
    pub fn absorb(&mut self, other: &RunReport) {
        self.instructions += other.instructions;
        self.user_instrs += other.user_instrs;
        self.kernel_instrs += other.kernel_instrs;
        self.idle_instrs += other.idle_instrs;
        self.syscalls += other.syscalls;
        self.context_switches += other.context_switches;
        self.halted_processes += other.halted_processes;
        self.faults.extend(other.faults.iter().copied());
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Process {
    pub(crate) regs: [i64; 32],
    /// User register snapshot taken at kernel entry; restored at kernel
    /// exit (register banking, like Alpha PALcode shadow registers), so
    /// kernel code may clobber any register.
    pub(crate) saved_regs: [i64; 32],
    /// Whether `r0` carries a kernel return value back to user mode
    /// (true for syscalls, false for preemption/scheduler entries).
    pub(crate) kernel_returns_r0: bool,
    pub(crate) pc: u32,
    pub(crate) stack: Vec<u32>,
    pub(crate) kernel_mode: bool,
    pub(crate) kpc: u32,
    pub(crate) kstack: Vec<u32>,
    pub(crate) pending_block: u64,
    pub(crate) cur_block_user: BlockId,
    pub(crate) cur_block_kernel: BlockId,
    pub(crate) priv_mem: Vec<i64>,
    pub(crate) emitted: Vec<i64>,
    pub(crate) halted: bool,
    pub(crate) fault: Option<Fault>,
    pub(crate) blocked_until: u64,
    pub(crate) started: bool,
    pub(crate) syscalls: u64,
}

pub(crate) enum Stop {
    Quantum,
    Halted,
    Blocked,
    Faulted(Fault),
}

/// A deterministic multi-process machine executing one application image and
/// an optional kernel image.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) app: Arc<Image>,
    pub(crate) kernel: Option<Arc<Image>>,
    pub(crate) syscalls: Vec<Option<SyscallDef>>,
    pub(crate) cfg: MachineConfig,
    pub(crate) procs: Vec<Process>,
    pub(crate) shared: Vec<i64>,
    pub(crate) now: u64,
    last_pid: Vec<Option<usize>>,
    /// Next CPU to serve; persists across `run` calls so chunked runs
    /// cannot starve CPUs (for example a preempted lock holder).
    cpu_rr: usize,
    /// Per-CPU next-process cursor; persists across `run` calls for the
    /// same fairness reason.
    proc_rr: Vec<usize>,
    /// Diagnostic: dispatch count per process.
    dispatches: Vec<u64>,
    /// Pre-decoded images, present iff `cfg.engine == VmEngine::Block`;
    /// obtained from (and shared through) the process-wide code cache.
    pub(crate) capp: Option<Arc<CompiledImage>>,
    pub(crate) ckernel: Option<Arc<CompiledImage>>,
}

impl Machine {
    /// Creates a machine running `app` on every process, without a kernel:
    /// syscalls become no-ops returning `0` in `r0`.
    pub fn new(app: Arc<Image>, cfg: MachineConfig) -> Self {
        Self::with_kernel_opt(app, None, Vec::new(), cfg)
    }

    /// Creates a machine with a kernel image and a syscall table mapping
    /// codes to kernel procedures.
    pub fn with_kernel(
        app: Arc<Image>,
        kernel: Arc<Image>,
        table: Vec<(u16, SyscallDef)>,
        cfg: MachineConfig,
    ) -> Self {
        Self::with_kernel_opt(app, Some(kernel), table, cfg)
    }

    fn with_kernel_opt(
        app: Arc<Image>,
        kernel: Option<Arc<Image>>,
        table: Vec<(u16, SyscallDef)>,
        cfg: MachineConfig,
    ) -> Self {
        let nprocs = cfg.num_cpus.max(1) * cfg.processes_per_cpu.max(1);
        assert!(nprocs <= 256, "at most 256 processes");
        assert!(cfg.num_cpus <= 64, "at most 64 CPUs");
        let priv_words = cfg.private_words.next_power_of_two();
        let shared_words = cfg.shared_words.next_power_of_two();
        assert!(
            priv_words as u64 * 8 <= PRIVATE_DATA_STRIDE,
            "private region exceeds its address stride"
        );
        let mut syscalls = Vec::new();
        for (code, def) in table {
            let idx = code as usize;
            if syscalls.len() <= idx {
                syscalls.resize(idx + 1, None);
            }
            syscalls[idx] = Some(def);
        }
        let entry_block = app.block_of[app.entry as usize];
        let procs = (0..nprocs)
            .map(|_| Process {
                regs: [0; 32],
                saved_regs: [0; 32],
                kernel_returns_r0: false,
                pc: app.entry,
                stack: Vec::new(),
                kernel_mode: false,
                kpc: 0,
                kstack: Vec::new(),
                pending_block: 0,
                cur_block_user: entry_block,
                cur_block_kernel: BlockId(0),
                priv_mem: vec![0; priv_words],
                emitted: Vec::new(),
                halted: false,
                fault: None,
                blocked_until: 0,
                started: false,
                syscalls: 0,
            })
            .collect();
        let last_pid = vec![None; cfg.num_cpus.max(1)];
        let proc_rr = vec![0; cfg.num_cpus.max(1)];
        let (capp, ckernel) = if cfg.engine == VmEngine::Block {
            (
                Some(crate::cache::get_or_compile(&app)),
                kernel.as_ref().map(crate::cache::get_or_compile),
            )
        } else {
            (None, None)
        };
        Machine {
            cpu_rr: 0,
            dispatches: vec![0; nprocs],
            proc_rr,
            app,
            kernel,
            syscalls,
            cfg: MachineConfig {
                private_words: priv_words,
                shared_words,
                ..cfg
            },
            procs,
            shared: vec![0; shared_words],
            now: 0,
            last_pid,
            capp,
            ckernel,
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.procs.len()
    }

    /// Debug snapshot of a process: `(kernel_mode, pc, kpc, blocked_until,
    /// halted)`. Intended for diagnostics and tests.
    pub fn process_state(&self, pid: usize) -> (bool, u32, u32, u64, bool) {
        let p = &self.procs[pid];
        (p.kernel_mode, p.pc, p.kpc, p.blocked_until, p.halted)
    }

    /// Diagnostic: how many times each process has been dispatched.
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.dispatches
    }

    /// Processes that have neither halted nor faulted.
    pub fn live_processes(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| !p.halted && p.fault.is_none())
            .count()
    }

    /// The machine configuration (with memory sizes normalized).
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The execution tier this machine was built with.
    pub fn engine(&self) -> VmEngine {
        self.cfg.engine
    }

    /// Global instruction clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sets a register of a (not yet started) process.
    ///
    /// # Panics
    /// Panics if `pid` is out of range.
    pub fn set_reg(&mut self, pid: usize, reg: Reg, value: i64) {
        rset(&mut self.procs[pid].regs, reg, value);
    }

    /// Reads a register of a process.
    pub fn reg(&self, pid: usize, reg: Reg) -> i64 {
        rget(&self.procs[pid].regs, reg)
    }

    /// Writes a word of shared memory.
    pub fn set_shared_word(&mut self, idx: usize, value: i64) {
        let m = self.shared.len() - 1;
        self.shared[idx & m] = value;
    }

    /// Reads a word of shared memory.
    pub fn shared_word(&self, idx: usize) -> i64 {
        self.shared[idx & (self.shared.len() - 1)]
    }

    /// Writes a word of a process's private memory.
    pub fn set_private_word(&mut self, pid: usize, idx: usize, value: i64) {
        let mem = &mut self.procs[pid].priv_mem;
        let m = mem.len() - 1;
        mem[idx & m] = value;
    }

    /// Reads a word of a process's private memory.
    pub fn private_word(&self, pid: usize, idx: usize) -> i64 {
        let mem = &self.procs[pid].priv_mem;
        mem[idx & (mem.len() - 1)]
    }

    /// Values emitted (via `Emit`) by a process, in order.
    pub fn emitted(&self, pid: usize) -> &[i64] {
        &self.procs[pid].emitted
    }

    /// The full shared-memory image (layout-invariant architectural
    /// state). A serving loop snapshots this at an epoch boundary and
    /// restores it into a fresh machine via [`Machine::load_shared`].
    pub fn shared_mem(&self) -> &[i64] {
        &self.shared
    }

    /// Overwrites shared memory with a snapshot taken by
    /// [`Machine::shared_mem`] on a machine of the same configuration.
    ///
    /// # Panics
    /// Panics if `words` is not exactly this machine's shared size
    /// (snapshots do not transfer between differently-sized machines).
    pub fn load_shared(&mut self, words: &[i64]) {
        assert_eq!(
            words.len(),
            self.shared.len(),
            "shared snapshot size must match the machine's shared memory"
        );
        self.shared.copy_from_slice(words);
    }

    /// Checksum of shared memory (layout-invariant architectural state).
    pub fn shared_checksum(&self) -> u64 {
        checksum_words(&self.shared)
    }

    /// Checksum of a process's private memory.
    pub fn private_checksum(&self, pid: usize) -> u64 {
        checksum_words(&self.procs[pid].priv_mem)
    }

    /// Runs without an execution hook. See [`Machine::run_hooked`].
    pub fn run<S: TraceSink>(&mut self, sink: &mut S, max_instrs: u64) -> RunReport {
        self.run_hooked(sink, &mut NullHook, max_instrs)
    }

    /// Runs all processes until they halt/fault or `max_instrs` instructions
    /// have executed, streaming fetch/data records to `sink` and
    /// block/edge/call events to `hook`.
    ///
    /// Scheduling: CPUs are served round-robin; on each turn a CPU picks its
    /// next runnable process (round-robin within the CPU) and runs it for up
    /// to one quantum, or until it halts, faults, or blocks. If a kernel is
    /// attached and [`MachineConfig::sched_proc`] is set, the scheduler
    /// procedure executes (as kernel instructions, in the incoming process's
    /// context) on every context switch.
    pub fn run_hooked<S: TraceSink, H: ExecHook>(
        &mut self,
        sink: &mut S,
        hook: &mut H,
        max_instrs: u64,
    ) -> RunReport {
        let mut report = RunReport::default();
        let ncpus = self.cfg.num_cpus.max(1);
        let nprocs = self.procs.len();
        let budget_end = self.now.saturating_add(max_instrs);

        loop {
            let mut any_ran = false;
            let mut min_wake = u64::MAX;
            let mut all_done = true;

            let cpu_base = self.cpu_rr;
            for turn in 0..ncpus {
                let cpu = (cpu_base + turn) % ncpus;
                // Budget check BEFORE selecting a process: selecting
                // advances the round-robin cursor, and doing that without
                // actually running the process would systematically skip
                // it under resonant chunked driving (a starvation bug that
                // once left a lock holder unscheduled forever).
                let quantum = self.cfg.quantum.min(budget_end.saturating_sub(self.now));
                if quantum == 0 {
                    self.cpu_rr = cpu;
                    break;
                }
                // Processes assigned to this cpu: pid % ncpus == cpu.
                let count = (nprocs + ncpus - 1 - cpu) / ncpus;
                if count == 0 {
                    continue;
                }
                let mut chosen = None;
                for k in 0..count {
                    let slot = (self.proc_rr[cpu] + k) % count;
                    let pid = slot * ncpus + cpu;
                    let p = &self.procs[pid];
                    if p.halted || p.fault.is_some() {
                        continue;
                    }
                    all_done = false;
                    if p.blocked_until > self.now {
                        min_wake = min_wake.min(p.blocked_until);
                        continue;
                    }
                    chosen = Some((slot, pid));
                    break;
                }
                let Some((slot, pid)) = chosen else { continue };
                self.proc_rr[cpu] = (slot + 1) % count;
                self.dispatches[pid] += 1;
                any_ran = true;

                if self.last_pid[cpu] != Some(pid) {
                    if self.last_pid[cpu].is_some() {
                        report.context_switches += 1;
                    }
                    self.last_pid[cpu] = Some(pid);
                    // Run the kernel scheduler path in the incoming process's
                    // context — unless it was preempted inside the kernel, in
                    // which case its saved kernel state must not be clobbered.
                    if let (Some(sp), true) = (self.cfg.sched_proc, self.kernel.is_some()) {
                        if !self.procs[pid].kernel_mode {
                            self.enter_kernel(pid, sp, 0, false, hook);
                        }
                    }
                }

                self.cpu_rr = (cpu + 1) % ncpus;
                let stop = match self.cfg.engine {
                    VmEngine::Interp => crate::exec::interp_exec(
                        self,
                        cpu as u8,
                        pid,
                        quantum,
                        sink,
                        hook,
                        &mut report,
                    ),
                    VmEngine::Block => crate::block::block_exec(
                        self,
                        cpu as u8,
                        pid,
                        quantum,
                        sink,
                        hook,
                        &mut report,
                    ),
                };
                match stop {
                    Stop::Halted => {
                        report.halted_processes += 1;
                        self.last_pid[cpu] = None;
                    }
                    Stop::Faulted(f) => {
                        report.faults.push((pid as u8, f));
                        self.procs[pid].fault = Some(f);
                        self.last_pid[cpu] = None;
                    }
                    Stop::Blocked | Stop::Quantum => {}
                }
            }

            if all_done {
                break;
            }
            if self.now >= budget_end {
                break;
            }
            if !any_ran {
                if min_wake == u64::MAX {
                    break; // nothing runnable and nothing will wake
                }
                let wake = min_wake.min(budget_end);
                report.idle_instrs += wake - self.now;
                self.now = wake;
            }
        }
        report
    }

    /// Enters kernel mode at the entry of `proc`, recording the
    /// post-handler blocking latency to apply at kernel exit. User
    /// registers are banked and restored at kernel exit; `returns_r0`
    /// selects whether the kernel's `r0` is forwarded back (syscall return
    /// convention) or the user's `r0` is preserved (preemption).
    fn enter_kernel<H: ExecHook>(
        &mut self,
        pid: usize,
        kproc: ProcId,
        block: u64,
        returns_r0: bool,
        hook: &mut H,
    ) {
        let kernel = self.kernel.as_ref().expect("kernel image attached");
        let p = &mut self.procs[pid];
        debug_assert!(!p.kernel_mode, "nested kernel entry");
        p.kernel_mode = true;
        p.saved_regs = p.regs;
        p.kernel_returns_r0 = returns_r0;
        p.kpc = kernel.proc_entry[kproc.index()];
        p.kstack.clear();
        p.pending_block = block;
        let entry_block = kernel.block_of[p.kpc as usize];
        p.cur_block_kernel = entry_block;
        hook.block(true, entry_block);
    }
}
