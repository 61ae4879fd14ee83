use std::process::ExitCode;

use trance_benchmark::workload::NET_WORKER_ENV;

fn main() -> ExitCode {
    // A copy of this binary spawned by the TCP workload is a worker rank:
    // divert before doing anything else.
    if let Ok(addr) = std::env::var(NET_WORKER_ENV) {
        return match trance_net::worker::serve(&addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("trance-benchmark worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match trance_benchmark::cli::main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("trance-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
