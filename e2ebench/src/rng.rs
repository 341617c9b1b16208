//! A small seeded generator (SplitMix64), so every input the benchmark
//! builds is a pure function of `--seed`.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: distinct `stream`
    /// values give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws request kinds in exact proportions: each cycle deals a freshly
/// shuffled deck holding every kind as many times as its weight, so a
/// run's mix does not drift with the seed.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    rng: Rng,
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(rng: Rng, weights: &[(T, usize)]) -> Deck<T> {
        let cards: Vec<T> = weights
            .iter()
            .flat_map(|&(t, n)| std::iter::repeat_n(t, n))
            .collect();
        let next = cards.len();
        Deck { rng, cards, next }
    }

    pub fn draw(&mut self) -> T {
        if self.next == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}
