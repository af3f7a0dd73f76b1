//! The served side of the benchmark: one in-process `estima-serve` node
//! with a durable store in a fresh directory, its `/v1/stats` counters, and
//! the process figures read from `/proc` (per-thread CPU, peak RSS).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use estima_core::json::Json;
use estima_serve::{Server, ServerConfig, ServerHandle};

/// A running node: one reactor thread, `parallelism = 1`, default cache
/// capacity, write-ahead log without fsync (all shipped defaults).
pub struct Node {
    handle: ServerHandle,
    dir: PathBuf,
    /// Threads the node spawned (its reactor).
    threads: Vec<u32>,
}

impl Node {
    /// Open the store in `dir` (which must not exist yet), bind to a free
    /// loopback port and start the reactor.
    pub fn start(dir: &Path) -> Result<Node, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let before = thread_ids();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            reactor_threads: 1,
            parallelism: 1,
            data_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let handle = Server::bind(config)
            .and_then(Server::spawn)
            .map_err(|e| format!("start the node: {e}"))?;
        let threads = thread_ids()
            .into_iter()
            .filter(|tid| !before.contains(tid))
            .collect();
        Ok(Node {
            handle,
            dir: dir.to_path_buf(),
            threads,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Threads the node runs on.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// CPU time consumed so far by the node's own threads, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.threads.iter().map(|tid| thread_cpu_ns(*tid)).sum()
    }

    /// Stop the reactor, wait for it, and delete the store.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Bits of the CPU masks passed to the affinity calls (glibc's
/// `cpu_set_t` size).
const MASK_WORDS: usize = 16;

/// Pin the calling thread, and so every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on. The load thread and the reactor then
/// share one CPU: where the scheduler places them otherwise moves warm
/// `warm_mix` throughput by about a quarter between runs. Returns the CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if set != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Ids of this process's threads.
pub fn thread_ids() -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// On-CPU time of one thread of this process in nanoseconds (first field
/// of its `schedstat`), or 0 when it cannot be read.
fn thread_cpu_ns(tid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPU model named by `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `/v1/stats` `requests` keys, in the order [`Counters::routes`] holds
/// them.
pub const ROUTES: [&str; 9] = [
    "predict",
    "batch",
    "healthz",
    "stats",
    "measurements",
    "series",
    "series_predict",
    "series_plan",
    "series_delete",
];

/// The `/v1/stats` counters the benchmark reads. Everything but
/// `wakeups` is a pure function of the request sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub routes: [u64; 9],
    pub error_replies: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_snapshots: u64,
    pub wakeups: u64,
}

impl Counters {
    pub fn parse(body: &str) -> Result<Counters, String> {
        let json = Json::parse(body).map_err(|e| format!("/v1/stats is not JSON: {e}"))?;
        let read = |path: &[&str]| -> Result<u64, String> {
            let mut node = &json;
            for key in path {
                node = node
                    .get(key)
                    .ok_or_else(|| format!("/v1/stats lacks {}", path.join(".")))?;
            }
            node.as_f64()
                .map(|v| v as u64)
                .ok_or_else(|| format!("/v1/stats {} is not a number", path.join(".")))
        };
        let mut routes = [0u64; 9];
        for (slot, route) in routes.iter_mut().zip(ROUTES) {
            *slot = read(&["requests", route])?;
        }
        Ok(Counters {
            routes,
            error_replies: read(&["requests", "client_errors"])?
                + read(&["requests", "server_errors"])?,
            bytes_in: read(&["bytes", "in"])?,
            bytes_out: read(&["bytes", "out"])?,
            cache_hits: read(&["cache", "hits"])?,
            cache_misses: read(&["cache", "misses"])?,
            cache_invalidations: read(&["cache", "invalidations"])?,
            wal_records: read(&["wal", "records"])?,
            wal_bytes: read(&["wal", "bytes"])?,
            wal_snapshots: read(&["wal", "snapshots"])?,
            wakeups: read(&["reactor", "epoll_wakeups"])?,
        })
    }
}
