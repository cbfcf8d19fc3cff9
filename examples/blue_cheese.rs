//! Watch the blue cheese grow.
//!
//! A static extent decays under EGI; every few cycles the example renders
//! the time axis as a strip of characters — `█` live and fresh, `▒`
//! infected (a rotting spot), `·` already eaten — so the paper's
//! Blue-Cheese picture is literally visible in the terminal.
//!
//! ```text
//! cargo run --example blue_cheese
//! ```

use spacefungus::fungus_core::Container;
use spacefungus::fungus_storage::DecaySurface;
use spacefungus::prelude::*;

const EXTENT: u64 = 4_000;
const STRIP: usize = 100; // terminal cells; each covers EXTENT/STRIP tuples

fn render_strip(container: &Container) -> String {
    let extent = container.extent();
    let bucket = (EXTENT as usize / STRIP).max(1);
    // Classify each bucket by the worst state inside it.
    let mut cells = vec![' '; STRIP];
    for (i, cell) in cells.iter_mut().enumerate() {
        let lo = (i * bucket) as u64;
        let hi = lo + bucket as u64;
        let mut live = 0usize;
        let mut infected = 0usize;
        let mut total = 0usize;
        for id in lo..hi {
            total += 1;
            if let Some(meta) = extent.meta(TupleId(id)) {
                live += 1;
                if meta.infected {
                    infected += 1;
                }
            }
        }
        *cell = if live == 0 {
            '·' // fully eaten
        } else if infected * 2 >= live {
            '▒' // rotting spot
        } else if live < total {
            '▚' // partially eaten
        } else {
            '█' // fresh cheese
        };
    }
    cells.into_iter().collect()
}

fn main() -> Result<()> {
    let schema = Schema::from_pairs(&[("v", DataType::Int)])?;
    let policy = ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
        seeds_per_tick: 1,
        spread_width: 1,
        rot_rate: 0.04,
        seed_bias: SeedBias::AgePow(1.0),
    }))
    .with_compaction_every(None); // keep the holes visible
    let mut cheese = Container::new("cheese", schema, policy, &DeterministicRng::new(99))?;

    for i in 0..EXTENT {
        cheese.insert(vec![Value::Int(i as i64)], Tick(i / 50))?;
    }

    println!("legend: █ fresh   ▒ rotting spot   ▚ nibbled   · eaten\n");
    let start = EXTENT / 50 + 1;
    for round in 0..20u64 {
        for step in 0..4 {
            cheese.decay_tick(Tick(start + round * 4 + step));
        }
        let census = cheese.spot_census();
        println!(
            "t+{:>3} |{}| live {:>4}, spots {:>2} (largest {:>3}), holes {:>2}",
            (round + 1) * 4,
            render_strip(&cheese),
            cheese.live_count(),
            census.infected_spots,
            census.largest_infected_spot,
            census.rot_holes,
        );
    }

    println!(
        "\n\"It remains edible for a long time though.\"  — {:.0}% of the cheese survives.",
        100.0 * cheese.live_count() as f64 / EXTENT as f64
    );
    Ok(())
}
