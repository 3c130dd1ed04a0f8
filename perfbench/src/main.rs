//! Command-line entry point; see the crate docs and `README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", perfbench::run(&args));
}
