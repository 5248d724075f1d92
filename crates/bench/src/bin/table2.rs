//! Regenerates Table 2: TRIPS control and data networks.

use trips_area::networks_table;

fn main() {
    let [] = trips_bench::flags_or_exit("table2", []);
    println!("Table 2. TRIPS Control and Data Networks (model-regenerated).");
    println!("{:<28} {:>18} {:>12}", "Network", "Use", "Bits");
    for row in networks_table() {
        let n = row.spec;
        let bits = if n.links_per_tile > 1 {
            format!("{} (x{})", n.bits, n.links_per_tile)
        } else {
            n.bits.to_string()
        };
        println!("{:<28} {:>18} {:>12}", format!("{} ({})", n.name, n.abbrev), n.purpose, bits);
    }
}
