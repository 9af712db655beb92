//! One module per paper artifact. The `figures` binary's docs index them.

pub mod ablation;
pub mod io_time;
pub mod pcp;
pub mod precompute;
pub mod sweep;

/// A printable experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which paper artifact this reproduces (e.g. "Figure p.33a").
    pub title: String,
    /// Pre-formatted lines (tables, notes).
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(title: impl Into<String>) -> Self {
        Report { title: title.into(), lines: Vec::new() }
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Renders the report to stdout.
    pub fn print(&self) {
        println!("\n================================================================");
        println!("{}", self.title);
        println!("================================================================");
        for l in &self.lines {
            println!("{l}");
        }
    }
}
