//! What the benchmark needs from the host: CPU pinning, peak RSS, and the
//! provenance block every result file carries.

use crate::json::Json;
use std::process::Command;

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

#[cfg(target_os = "linux")]
fn affinity() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

/// CPUs the process was allowed to run on, and the one it is now pinned to.
#[derive(Clone, Copy, Debug)]
pub struct Pinning {
    pub allowed_cpus: usize,
    pub cpu: usize,
}

/// What was done to the process before the first thread was spawned.
#[derive(Clone, Debug)]
pub struct Prepared {
    pub pin: Pinning,
    pub cleared_env: Vec<String>,
    pub single_arena: bool,
}

/// Clear the environment, keep malloc to one arena and pin to one CPU.
pub fn prepare_process() -> Result<Prepared, String> {
    let cleared_env = clear_bsoap_env();
    let single_arena = single_malloc_arena();
    let pin = pin_to_one_cpu()?;
    Ok(Prepared {
        pin,
        cleared_env,
        single_arena,
    })
}

/// Pin the calling thread — and so every thread spawned after it — to the
/// highest-numbered CPU it may run on (CPU 0 takes most interrupts). Must
/// run before any thread is spawned. Unpinned, the client↔server ping-pong
/// flips between a same-core and a cross-core-wake-up mode that are a factor
/// of four apart, so a run that cannot pin reports nothing.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<Pinning, String> {
    let allowed = affinity()?;
    let allowed_cpus = allowed.iter().map(|w| w.count_ones() as usize).sum();
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte length passed; the
    // call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    if affinity()? != one {
        return Err("affinity mask did not take".to_owned());
    }
    Ok(Pinning {
        allowed_cpus,
        cpu: word * 64 + bit,
    })
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<Pinning, String> {
    Err("CPU pinning is implemented for Linux only".to_owned())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep glibc malloc to its main arena. With per-thread arenas, peak RSS
/// depends on which short-lived server threads happened to allocate first
/// (`cold_mix` read 15.2 to 28.5 MiB across identical runs; with one arena,
/// 15.67 to 15.84). Everything runs on one CPU, so no arena is contended.
/// Returns whether the setting took. Call before any thread is spawned.
fn single_malloc_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only stores a tunable inside the allocator; it is
        // called while the process is still single-threaded.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Remove every `BSOAP_*` variable so `EngineConfig::paper_default()` and the
/// kernel dispatcher cannot be steered by the environment; returns the names
/// removed. Call before any thread is spawned.
fn clear_bsoap_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BSOAP_"))
        .collect();
    names.sort();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let v = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host half of the provenance block. The driver's checkout is not a git
/// repository, so the commit reads `unknown` there.
pub fn host_provenance(prepared: &Prepared) -> Vec<(String, Json)> {
    let Prepared {
        pin,
        cleared_env,
        single_arena,
    } = prepared;
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    vec![
        (
            "git_commit".into(),
            Json::Str(command_line(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        (
            "cpu_model".into(),
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        ("nproc".into(), Json::Num(pin.allowed_cpus as f64)),
        ("pinned_cpu".into(), Json::Num(pin.cpu as f64)),
        (
            "kernel_level".into(),
            Json::Str(format!("{:?}", bsoap_kernels::detected_level())),
        ),
        (
            "cleared_env".into(),
            Json::Arr(cleared_env.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "malloc_arenas".into(),
            Json::Str(
                if *single_arena {
                    "1 (mallopt)"
                } else {
                    "default"
                }
                .into(),
            ),
        ),
        ("link".into(), Json::Str("host loopback (127.0.0.1)".into())),
    ]
}
