//! What the benchmark reads from `/proc` and the one system call it
//! makes: CPU time per thread role, peak memory, and pinning to one CPU.
//!
//! The parsers take text so they are tested on captured fixtures.

use std::fs;

/// `sysconf(_SC_CLK_TCK)`: fixed at 100 on every Linux ABI this runs on.
const CLOCK_TICKS_PER_S: u64 = 100;

/// The runtime layer a thread belongs to, told from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Worker,
    Helper,
    Comm,
    Net,
    /// Everything the runtime did not name: the benchmark's own threads.
    Driver,
}

pub const ROLES: [Role; 5] = [Role::Worker, Role::Helper, Role::Comm, Role::Net, Role::Driver];

impl Role {
    /// Position in [`ROLES`] and in every per-role array.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Role::Worker => "worker",
            Role::Helper => "helper",
            Role::Comm => "comm",
            Role::Net => "net",
            Role::Driver => "driver",
        }
    }
}

/// Classifies a thread by the content of its `comm` file. The runtime
/// names its threads `gmt-n<node>-w<i>` (worker), `-h<i>` (helper),
/// `-comm`, and the transports `gmt-tcp-rx-*`, `gmt-net-wire`,
/// `gmt-shm-mon-*`.
pub fn role_of_comm(comm: &str) -> Role {
    let comm = comm.trim();
    if ["gmt-tcp-rx-", "gmt-net-wire", "gmt-shm-mon-"].iter().any(|p| comm.starts_with(p)) {
        return Role::Net;
    }
    let Some(rest) = comm.strip_prefix("gmt-n") else { return Role::Driver };
    let Some((node, kind)) = rest.split_once('-') else { return Role::Driver };
    if node.is_empty() || !node.bytes().all(|b| b.is_ascii_digit()) {
        return Role::Driver;
    }
    match kind.as_bytes() {
        b"comm" => Role::Comm,
        [b'w', digits @ ..] if is_index(digits) => Role::Worker,
        [b'h', digits @ ..] if is_index(digits) => Role::Helper,
        _ => Role::Driver,
    }
}

fn is_index(digits: &[u8]) -> bool {
    !digits.is_empty() && digits.iter().all(u8::is_ascii_digit)
}

/// On-CPU nanoseconds from a `schedstat` file (`<run ns> <wait ns> <slices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` in nanoseconds from a `stat` file. The command name
/// in parentheses may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ns(text: &str) -> Option<u64> {
    let after = &text[text.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the command come state, ppid, ... ; utime and stime are the
    // 14th and 15th fields of the file, the 12th and 13th from here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / CLOCK_TICKS_PER_S))
}

/// The value of a `Key:\tvalue` line of a `status` file.
fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':')).map(str::trim)
}

/// Peak resident set size in MiB (`VmHWM`, reported in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let kb: f64 = status_field(status, "VmHWM")?.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPUs of a `Cpus_allowed_list` line (`0-1,4`), ascending.
pub fn parse_cpus_allowed_list(status: &str) -> Option<Vec<usize>> {
    let list = status_field(status, "Cpus_allowed_list")?;
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = match part.split_once('-') {
            Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
            None => {
                let cpu: usize = part.trim().parse().ok()?;
                (cpu, cpu)
            }
        };
        if lo > hi {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    if cpus.is_empty() {
        None
    } else {
        Some(cpus)
    }
}

fn self_status() -> Result<String, String> {
    fs::read_to_string("/proc/self/status").map_err(|e| format!("reading /proc/self/status: {e}"))
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    parse_cpus_allowed_list(&self_status()?)
        .ok_or_else(|| "no Cpus_allowed_list in /proc/self/status".to_string())
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    parse_vm_hwm_mb(&self_status()?).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `utime + stime` of the whole process, nanoseconds (tick granularity).
pub fn process_cpu_ns() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_stat_cpu_ns(&text).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// On-CPU nanoseconds of every live thread of this process summed by
/// role, indexed like [`ROLES`]. A thread that exits between the
/// directory listing and the read is skipped: its time is then missing
/// from the sum, which the reconciliation against [`process_cpu_ns`]
/// reports.
pub fn cpu_ns_by_role() -> Result<[u64; 5], String> {
    let mut by_role = [0u64; 5];
    let dir =
        fs::read_dir("/proc/self/task").map_err(|e| format!("reading /proc/self/task: {e}"))?;
    for entry in dir.flatten() {
        let path = entry.path();
        let (Ok(comm), Ok(sched)) =
            (fs::read_to_string(path.join("comm")), fs::read_to_string(path.join("schedstat")))
        else {
            continue;
        };
        let ns = parse_schedstat(&sched).ok_or_else(|| format!("malformed {path:?}/schedstat"))?;
        by_role[role_of_comm(&comm).index()] += ns;
    }
    Ok(by_role)
}

/// Pins the calling thread, and every thread and process it creates
/// afterwards, to `cpu`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let mut mask = [0u64; 16];
    let word =
        mask.get_mut(cpu / 64).ok_or_else(|| format!("cpu {cpu} beyond the 1024-bit mask"))?;
    *word = 1 << (cpu % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes from
    // `mask`, which is a live local array of exactly that size, and
    // writes no memory. The `syscall` instruction clobbers rcx and r11,
    // both declared; no stack is used.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of_val(&mask) as i64,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret < 0 {
        return Err(format!("sched_setaffinity(cpu {cpu}) failed with errno {}", -ret));
    }
    match allowed_cpus()? {
        now if now == [cpu] => Ok(()),
        now => Err(format!("pinned to cpu {cpu} but Cpus_allowed_list reads {now:?}")),
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_cpu(_cpu: usize) -> Result<(), String> {
    Err("pinning needs the x86-64 Linux sched_setaffinity call".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a run of this benchmark on the reproduction host.
    const STATUS: &str = "Name:\tgmt-e2e\nUmask:\t0022\nState:\tR (running)\nTgid:\t4242\n\
        VmPeak:\t  612340 kB\nVmSize:\t  546804 kB\nVmLck:\t       0 kB\nVmHWM:\t   21508 kB\n\
        VmRSS:\t   20988 kB\nThreads:\t8\nCpus_allowed:\t1\nCpus_allowed_list:\t0\n\
        Mems_allowed_list:\t0\nvoluntary_ctxt_switches:\t12\n";

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("8123456789 81887 4211\n"), Some(8_123_456_789));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn roles_index_their_arrays() {
        assert!(ROLES.iter().enumerate().all(|(i, r)| r.index() == i));
    }

    #[test]
    fn comm_names_map_to_layers() {
        for (comm, role) in [
            ("gmt-n0-w0\n", Role::Worker),
            ("gmt-n1-w12\n", Role::Worker),
            ("gmt-n0-h0\n", Role::Helper),
            ("gmt-n11-comm\n", Role::Comm),
            ("gmt-tcp-rx-1\n", Role::Net),
            ("gmt-net-wire\n", Role::Net),
            ("gmt-shm-mon-0\n", Role::Net),
            ("gmt-e2e\n", Role::Driver),
            ("gmt-n0-wx\n", Role::Driver),
            ("gmt-n-w0\n", Role::Driver),
            ("gmt-nx-comm\n", Role::Driver),
        ] {
            assert_eq!(role_of_comm(comm), role, "{comm:?}");
        }
    }

    #[test]
    fn stat_cpu_time_survives_a_hostile_command_name() {
        // utime 731, stime 112 ticks of 10 ms.
        let stat = "4242 (gmt e2e) x) R 4241 4242 4000 34816 4242 4194304 5441 0 0 0 731 112 0 0 \
                    20 0 8 0 123456 559927296 5247 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 \
                    0 0 17 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n";
        assert_eq!(parse_stat_cpu_ns(stat), Some(8_430_000_000));
        assert_eq!(parse_stat_cpu_ns("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("no parenthesis"), None);
    }

    #[test]
    fn status_fields() {
        assert_eq!(parse_vm_hwm_mb(STATUS), Some(21508.0 / 1024.0));
        assert_eq!(parse_cpus_allowed_list(STATUS), Some(vec![0]));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        let list = |s: &str| parse_cpus_allowed_list(&format!("Cpus_allowed_list:\t{s}\n"));
        assert_eq!(list("0-1"), Some(vec![0, 1]));
        assert_eq!(list("0-2,7,9-10"), Some(vec![0, 1, 2, 7, 9, 10]));
        assert_eq!(list("3"), Some(vec![3]));
        assert_eq!(list("2-1"), None);
        assert_eq!(list(""), None);
        // `Cpus_allowed:` (the mask line) must not be mistaken for the list.
        assert_eq!(parse_cpus_allowed_list("Cpus_allowed:\t3\n"), None);
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(!allowed_cpus().unwrap().is_empty());
        assert!(peak_rss_mb().unwrap() > 0.0);
        process_cpu_ns().unwrap();
        cpu_ns_by_role().unwrap();
    }
}
