//! `vpec` — command-line interface to the VPEC interconnect toolkit.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match vpec_cli::parse_args(&argv).and_then(|a| vpec_cli::commands::run(&a)) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("vpec: {e}");
            if e.code == 2 {
                eprintln!("\n{}", vpec_cli::USAGE);
            }
            std::process::exit(e.code);
        }
    }
}
