"""Transport a root vector to every window root and report weight-space
dimensions, demonstrating the one-dimensionality witnesses.

Usage: python scripts/transport_demo.py [--type NAME] [--window M,N]
"""
import argparse
import time

from erskit.base_system import simple_config
from erskit.roots import RootWindow, generate
from erskit.unfold import (
    Realization,
    loop_weight_dim,
    root_to_ambient,
    transport_images,
    witness_height,
    witness_words,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--type", dest="tname", default="D3(2)")
    ap.add_argument("--window", default="4,4")
    ap.add_argument("--show", type=int, default=10,
                    help="number of sample rows to print")
    args = ap.parse_args()
    m, n = (int(x) for x in args.window.split(","))

    cfg = simple_config(args.tname)
    rs = generate(cfg, RootWindow(m, n))
    t0 = time.monotonic()
    words = witness_words(cfg, rs)
    height = witness_height(cfg, rs, words)
    real = Realization(cfg, height)
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    images = transport_images(real, words, targets=vectors)

    bad = 0
    shown = 0
    print(f"{args.tname}: {len(vectors)} roots, build height {height}")
    print(f"{'root':30} {'|word|':>6} {'dim':>4} {'terms':>6}")
    for coords, _ in rs.sorted_roots():
        vec = root_to_ambient(cfg, coords)
        dim = loop_weight_dim(real, vec)
        img = images[vec]
        if dim != 1 or img.is_zero():
            bad += 1
        if shown < args.show:
            print(f"{str(coords):30} {len(words[vec][1]):>6} {dim:>4} "
                  f"{len(img.terms):>6}")
            shown += 1
    dt = time.monotonic() - t0
    print(f"{bad} defects in {dt:.1f}s")


if __name__ == "__main__":
    main()
