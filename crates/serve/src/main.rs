//! The `estima-serve` binary: run the prediction service from the command
//! line.
//!
//! ```text
//! estima-serve [--addr 127.0.0.1:7117] [--reactor-threads N] [--backlog N]
//!              [--parallelism N] [--cache-capacity N]
//!              [--data-dir DIR] [--wal-sync] [--wal-compact-bytes N]
//!              [--ttl-secs N] [--max-series-per-tenant N]
//!              [--max-points-per-tenant N] [--max-body-bytes N]
//!              [--mode node|router] [--shard HOST:PORT]...
//! ```
//!
//! Binds, prints the listening address, and serves until killed. With
//! `--mode router` the process holds no data: every request is forwarded to
//! the shard that owns its series (repeat `--shard` once per node). See
//! README § *Run as a service* for `curl` examples, README § *Run a
//! cluster* for the router quickstart, and DESIGN.md § *Serving layer* /
//! § *Cluster serving* for the wire format.

use estima_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: estima-serve [--addr HOST:PORT] [--reactor-threads N] [--backlog N] \
         [--parallelism N] [--cache-capacity N] [--data-dir DIR] [--wal-sync] \
         [--wal-compact-bytes N] [--ttl-secs N] [--max-series-per-tenant N] \
         [--max-points-per-tenant N] [--max-body-bytes N] \
         [--mode node|router] [--shard HOST:PORT]...\n\
         \n\
         --addr             bind address (default 127.0.0.1:7117; port 0 = auto)\n\
         --reactor-threads  epoll reactor threads, 0 = one per CPU (default 0);\n\
         \u{20}                  not a connection limit — each reactor multiplexes\n\
         \u{20}                  any number of connections\n\
         --backlog          listen backlog depth (default 1024)\n\
         --parallelism      per-prediction engine workers (default 1)\n\
         --cache-capacity   fit-cache size in cached series, and in memoised\n\
         \u{20}                  prefix solves (default 4096)\n\
         --data-dir         durable store directory: WAL + snapshots; series\n\
         \u{20}                  survive restarts (default: in-memory only)\n\
         --wal-sync         fsync every WAL append (power-loss durability;\n\
         \u{20}                  a process crash never loses data either way)\n\
         --wal-compact-bytes  WAL size that triggers snapshot compaction\n\
         \u{20}                  (default 4194304)\n\
         --ttl-secs         evict series idle this long, 0 = never (default 0)\n\
         --max-series-per-tenant  per-tenant series quota, 0 = unlimited;\n\
         \u{20}                  the tenant is the series-id prefix before `.`\n\
         --max-points-per-tenant  per-tenant point quota, 0 = unlimited\n\
         --max-body-bytes   largest accepted request body (default 16777216)\n\
         --mode             node (default) serves data; router forwards every\n\
         \u{20}                  request to the shard owning its series\n\
         --shard            a shard node's HOST:PORT (router mode; repeat\n\
         \u{20}                  once per node — order defines the ring)"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::default();
    let mut mode = String::from("node");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--reactor-threads" => match value("--reactor-threads").parse() {
                Ok(n) => config.reactor_threads = n,
                Err(_) => usage(),
            },
            "--backlog" => match value("--backlog").parse() {
                Ok(n) => config.backlog = n,
                Err(_) => usage(),
            },
            "--parallelism" => match value("--parallelism").parse() {
                Ok(n) => config.parallelism = n,
                Err(_) => usage(),
            },
            "--cache-capacity" => match value("--cache-capacity").parse() {
                Ok(n) => config.cache_capacity = n,
                Err(_) => usage(),
            },
            "--data-dir" => config.data_dir = Some(value("--data-dir")),
            "--wal-sync" => config.wal_sync = true,
            "--wal-compact-bytes" => match value("--wal-compact-bytes").parse() {
                Ok(n) => config.wal_compact_bytes = n,
                Err(_) => usage(),
            },
            "--ttl-secs" => match value("--ttl-secs").parse() {
                Ok(n) => config.ttl_secs = n,
                Err(_) => usage(),
            },
            "--max-series-per-tenant" => match value("--max-series-per-tenant").parse() {
                Ok(n) => config.max_series_per_tenant = n,
                Err(_) => usage(),
            },
            "--max-points-per-tenant" => match value("--max-points-per-tenant").parse() {
                Ok(n) => config.max_points_per_tenant = n,
                Err(_) => usage(),
            },
            "--max-body-bytes" => match value("--max-body-bytes").parse() {
                Ok(n) => config.max_body_bytes = n,
                Err(_) => usage(),
            },
            "--mode" => {
                mode = value("--mode");
                if mode != "node" && mode != "router" {
                    eprintln!("error: --mode must be `node` or `router`, not `{mode}`");
                    usage();
                }
            }
            "--shard" => config.shards.push(value("--shard")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage();
            }
        }
    }

    if mode == "router" {
        if config.shards.is_empty() {
            eprintln!("error: --mode router needs at least one --shard");
            usage();
        }
        if config.data_dir.is_some() {
            eprintln!("error: a router holds no data; --data-dir belongs on the shard nodes");
            usage();
        }
    } else if !config.shards.is_empty() {
        eprintln!("error: --shard only makes sense with --mode router");
        usage();
    }

    let server = match Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("estima-serve listening on http://{addr}/"),
        Err(_) => println!("estima-serve listening on http://{}/", config.addr),
    }
    if let Err(e) = server.run() {
        eprintln!("error: server failed: {e}");
        std::process::exit(1);
    }
}
