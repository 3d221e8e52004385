//! Property-based tests for the DSL front end and interpreter.

use proptest::prelude::*;
use stencilcl_grid::{Extent, Point, Rect};
use stencilcl_lang::{
    parse, tokenize, BinOp, CompiledProgram, Expr, Func, GridState, Interpreter, StencilFeatures,
    UnaryOp,
};

proptest! {
    #[test]
    fn lexer_never_panics(src in "[ -~\n]{0,160}") {
        let _ = tokenize(&src);
    }

    #[test]
    fn parser_never_panics(src in "[a-z0-9\\[\\]{}()+\\-*/;:=. \n]{0,200}") {
        let _ = parse(&src);
    }

    #[test]
    fn random_symmetric_stencils_parse_and_extract(
        radius in 1i64..3,
        weight in 0.01f64..0.49,
        n in 8usize..24,
        iters in 1u64..6,
    ) {
        let src = format!(
            "stencil s {{ grid A[{n}] : f32; iterations {iters};
             A[i] = {c} * A[i] + {w} * (A[i-{radius}] + A[i+{radius}]); }}",
            c = 1.0 - 2.0 * weight,
            w = weight,
        );
        let p = parse(&src).unwrap();
        let f = StencilFeatures::extract(&p).unwrap();
        prop_assert_eq!(f.growth.lo(0), radius as u64);
        prop_assert_eq!(f.growth.hi(0), radius as u64);
        prop_assert_eq!(f.iterations, iters);
    }

    #[test]
    fn averaging_stencils_respect_maximum_principle(
        n in 8usize..20,
        iters in 1u64..8,
        seed in 0u64..1_000,
    ) {
        // A convex-combination stencil can never exceed the initial range.
        let src = format!(
            "stencil avg {{ grid A[{n}] : f32; iterations {iters};
             A[i] = 0.5 * A[i] + 0.25 * (A[i-1] + A[i+1]); }}"
        );
        let p = parse(&src).unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::new(&p, |_, pt| {
            let x = (pt.coord(0) as u64).wrapping_mul(seed.wrapping_add(17)) % 1000;
            x as f64 / 1000.0
        });
        let before = s.clone();
        interp.run(&mut s, iters).unwrap();
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for (_, &v) in before.grid("A").unwrap().iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        for (_, &v) in s.grid("A").unwrap().iter() {
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "value {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn stepping_twice_equals_running_two_iterations(
        n in 8usize..16,
        seed in 0i64..100,
    ) {
        let src = format!(
            "stencil j {{ grid A[{n}][{n}] : f32; iterations 2;
             A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }}"
        );
        let p = parse(&src).unwrap();
        let interp = Interpreter::new(&p);
        let init = |_: &str, pt: &Point| ((pt.coord(0) * 7 + pt.coord(1) * 3 + seed) % 11) as f64;
        let mut a = GridState::new(&p, init);
        interp.run(&mut a, 2).unwrap();
        let mut b = GridState::new(&p, init);
        let full = Rect::from_extent(&Extent::new2(n, n));
        interp.step(&mut b, &full).unwrap();
        interp.step(&mut b, &full).unwrap();
        prop_assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
    }

    #[test]
    fn boundary_ring_is_never_touched(
        n in 6usize..16,
        iters in 1u64..5,
        seed in 0i64..50,
    ) {
        let src = format!(
            "stencil j {{ grid A[{n}] : f32; iterations {iters};
             A[i] = A[i-1] + A[i+1]; }}"
        );
        let p = parse(&src).unwrap();
        let interp = Interpreter::new(&p);
        let init = |_: &str, pt: &Point| (pt.coord(0) + seed) as f64;
        let mut s = GridState::new(&p, init);
        interp.run(&mut s, iters).unwrap();
        let a = s.grid("A").unwrap();
        prop_assert_eq!(*a.get(&Point::new1(0)).unwrap(), seed as f64);
        prop_assert_eq!(
            *a.get(&Point::new1(n as i64 - 1)).unwrap(),
            (n as i64 - 1 + seed) as f64
        );
    }

    #[test]
    fn features_are_deterministic(
        n in 8usize..32,
        iters in 1u64..100,
    ) {
        let p = stencilcl_lang::programs::jacobi_2d()
            .with_extent(Extent::new2(n, n))
            .with_iterations(iters);
        let f1 = StencilFeatures::extract(&p).unwrap();
        let f2 = StencilFeatures::extract(&p).unwrap();
        prop_assert_eq!(f1, f2);
    }
}

/// A 1-D state of grids `names[g]` with `lens[g]` cells each, filled in
/// order from the bit patterns `words`. The extents need not agree: the
/// digest is defined over any grid set, checked programs or not.
fn state_of(names: &[&str], lens: &[usize], words: &[u64]) -> GridState {
    let mut p = parse("stencil s { grid A[4] : f32; grid B[4] : f32; iterations 1; A[i] = B[i]; }")
        .unwrap();
    p.grids.truncate(names.len());
    let mut grids = std::collections::BTreeMap::new();
    let mut rest = words;
    for (g, (name, &len)) in p.grids.iter_mut().zip(names.iter().zip(lens)) {
        g.name = name.to_string();
        g.extent = Extent::new1(len);
        let (mine, tail) = rest.split_at(len);
        rest = tail;
        let values = mine.iter().map(|&w| f64::from_bits(w)).collect();
        grids.insert(
            g.name.clone(),
            stencilcl_grid::Grid::from_vec(g.extent, values).unwrap(),
        );
    }
    GridState::from_grids(&p, grids).unwrap()
}

fn words(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            (seed ^ i)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17)
        })
        .collect()
}

proptest! {
    #[test]
    fn a_one_bit_flip_in_any_cell_changes_the_digest(
        a in 1usize..24, b in 1usize..24, seed in any::<u64>(),
        cell in any::<usize>(), bit in 0u32..64,
    ) {
        let mut w = words(a + b, seed);
        let before = state_of(&["A", "B"], &[a, b], &w).digest();
        w[cell % (a + b)] ^= 1 << bit;
        prop_assert_ne!(before, state_of(&["A", "B"], &[a, b], &w).digest());
    }

    #[test]
    fn swapping_two_adjacent_cells_changes_the_digest(
        n in 2usize..40, seed in any::<u64>(), at in any::<usize>(),
    ) {
        let mut w = words(2 * n, seed);
        let at = at % (2 * n - 1);
        prop_assert_ne!(w[at], w[at + 1], "the generator makes neighbours distinct");
        let before = state_of(&["A", "B"], &[n, n], &w).digest();
        w.swap(at, at + 1);
        prop_assert_ne!(before, state_of(&["A", "B"], &[n, n], &w).digest());
    }

    #[test]
    fn moving_a_value_across_a_grid_boundary_changes_the_digest(
        a in 1usize..24, b in 2usize..24, seed in any::<u64>(),
    ) {
        // The same cell stream, cut one cell later: only the lengths differ.
        let w = words(a + b, seed);
        prop_assert_ne!(
            state_of(&["A", "B"], &[a, b], &w).digest(),
            state_of(&["A", "B"], &[a + 1, b - 1], &w).digest()
        );
    }

    #[test]
    fn renaming_a_grid_changes_the_digest(n in 1usize..24, seed in any::<u64>()) {
        let w = words(2 * n, seed);
        let base = state_of(&["A", "B"], &[n, n], &w).digest();
        for names in [["A", "C"], ["A", "BB"], ["A", "B\0"], ["Ab", "B"]] {
            prop_assert_ne!(base, state_of(&names, &[n, n], &w).digest());
        }
    }
}

#[test]
fn every_short_grid_length_digests_apart() {
    // Lengths 1..=9 cover every offset into the four hash lanes; the empty
    // state stands for length 0.
    let w = words(9, 7);
    let mut seen = vec![GridState::default().digest()];
    for n in 1..=9 {
        let state = state_of(&["A"], &[n], &w);
        let d = state.digest();
        assert!(!seen.contains(&d), "length {n} collides");
        seen.push(d);
        for cell in 0..n {
            let mut flipped = w.clone();
            flipped[cell] ^= 1;
            assert_ne!(d, state_of(&["A"], &[n], &flipped).digest(), "{n}/{cell}");
        }
    }
}

#[test]
fn the_digest_of_a_fixed_state_is_pinned() {
    // A silent change to the digest algorithm must fail here: job results,
    // benchmarks and stored expectations compare against these values.
    let p = parse(
        "stencil s { grid A[2][3] : f32; grid B[2][3] : f32; iterations 1; A[i][j] = B[i][j]; }",
    )
    .unwrap();
    let state = GridState::new(&p, |name, pt| {
        name.len() as f64 + pt.coord(0) as f64 * 0.5 - pt.coord(1) as f64
    });
    assert_eq!(state.digest(), 0xc951_c4ed_89ff_9781);
}

#[test]
fn clone_from_equals_clone_whether_or_not_the_grid_sets_match() {
    let two = state_of(&["A", "B"], &[5, 5], &words(10, 3));
    let other = state_of(&["A", "B"], &[5, 5], &words(10, 4));
    let mut reused = other.clone();
    reused.clone_from(&two);
    assert_eq!(reused, two);
    let mut mismatched = state_of(&["C"], &[3], &words(3, 5));
    mismatched.clone_from(&two);
    assert_eq!(mismatched, two);
    assert_eq!(mismatched.digest(), two.digest());
}

/// Values whose operation order shows: NaN (both signs), signed zeros,
/// infinities, subnormals, and a few ordinary numbers. Grids start from
/// them; literals take the finite ones (the checker rejects non-finite
/// literals), and NaN and infinite constants come from folded `0.0 / 0.0`
/// and `±1.0 / 0.0`.
const SPECIAL: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    -2.5e-310,
    1.5,
    -0.75,
    3.0e10,
    -7.25e-3,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A small deterministic generator for expression trees (xorshift64*).
struct Gen(u64);

impl Gen {
    fn next(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    /// A leaf: a load of `A` (the target) or `B` within radius 1, or a
    /// constant drawn from [`SPECIAL`].
    fn leaf(&mut self) -> Expr {
        if self.next(2) == 0 {
            let num = |v: f64| Box::new(Expr::Number(v));
            return match SPECIAL[self.next(SPECIAL.len())] {
                v if v.is_finite() => *num(v),
                v if v.is_nan() => {
                    let nan = Expr::Binary(BinOp::Div, num(0.0), num(0.0));
                    if v.is_sign_negative() {
                        Expr::Unary(UnaryOp::Neg, Box::new(nan))
                    } else {
                        nan
                    }
                }
                v => Expr::Binary(BinOp::Div, num(v.signum()), num(0.0)),
            };
        }
        let grid = ["A", "B"][self.next(2)].to_string();
        let offset = Point::new2(self.next(3) as i64 - 1, self.next(3) as i64 - 1);
        Expr::Access { grid, offset }
    }

    /// Operation `op` (0..9: `+ - * /`, `min`, `max`, negation, `abs`,
    /// `sqrt`) over random subtrees at most `depth` deep.
    fn node(&mut self, op: usize, depth: usize) -> Expr {
        let sub = |g: &mut Gen| Box::new(g.tree(depth));
        match op {
            0..=3 => {
                let kind = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][op];
                Expr::Binary(kind, sub(self), sub(self))
            }
            4 | 5 => {
                let func = if op == 4 { Func::Min } else { Func::Max };
                Expr::Call(func, vec![*sub(self), *sub(self)])
            }
            6 => Expr::Unary(UnaryOp::Neg, sub(self)),
            7 => Expr::Call(Func::Abs, vec![*sub(self)]),
            _ => Expr::Call(Func::Sqrt, vec![*sub(self)]),
        }
    }

    fn tree(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.next(3) == 0 {
            self.leaf()
        } else {
            let op = self.next(9);
            self.node(op, depth - 1)
        }
    }
}

/// Every cell's bit pattern, with each NaN replaced by one marker. Rust
/// leaves the sign and payload of a NaN that arithmetic produces
/// unspecified — LLVM may commute `a + b`, so `NaN + -NaN` can come out
/// with either sign, in the interpreter as in a vectorized lane loop — so a
/// NaN cell compares as "NaN on both sides". Every other value, signed
/// zeros, infinities and subnormals included, compares bit for bit.
fn bits(s: &GridState) -> Vec<u64> {
    s.grid_names()
        .flat_map(|g| s.grid(g).unwrap().as_slice().iter())
        .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
        .collect()
}

proptest! {
    // Operand folding reads loads and constants in place; it must apply
    // the same operation to the same operands in the same order as the
    // interpreter, down to `min(NaN, x)`, `max(-0.0, 0.0)` and signed
    // zeros.
    #[test]
    fn folded_tapes_match_the_interpreter_bit_for_bit(
        seed in any::<u64>(),
        rows in 3usize..6,
        cols in 0usize..40,
    ) {
        // Mostly short rows; one case in eight runs past a 256-lane chunk.
        let cols = if cols < 35 { 3 + cols % 24 } else { 257 + cols };
        let src = format!(
            "stencil r {{ grid A[{rows}][{cols}] : f32; grid B[{rows}][{cols}] : f32 read_only;
             iterations 2; A[i][j] = A[i][j]; }}"
        );
        let mut gen = Gen(seed | 1);
        let init = |name: &str, pt: &Point| {
            let h = (seed ^ ((name.len() as u64) << 32))
                .wrapping_add((pt.coord(0) * 1000 + pt.coord(1)) as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            SPECIAL[(h >> 58) as usize % SPECIAL.len()]
        };
        // Every operation is the root of one tree per case.
        for op in 0..9 {
            let mut p = parse(&src).unwrap();
            p.updates[0].rhs = gen.node(op, 4);
            let mut want = GridState::new(&p, init);
            Interpreter::new(&p).run(&mut want, p.iterations).unwrap();
            for lanes in [1, stencilcl_lang::LANE_WIDTH] {
                let cp = CompiledProgram::compile(&p).unwrap().with_lanes(lanes);
                let mut got = GridState::new(&p, init);
                cp.run(&mut got, p.iterations).unwrap();
                prop_assert_eq!(bits(&got), bits(&want), "lanes {}: {}", lanes, p.updates[0].rhs);
            }
        }
    }
}
