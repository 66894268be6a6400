PYTHON ?= python
export PYTHONPATH := src

.PHONY: check check-cc test test-properties bench-smoke bench-pairs smoke fault-smoke serve-smoke chaos-smoke loc

# What CI runs on every push: the equivalence property suite first (its own
# stage, so an engine name or kernel rung diverging from the object-model
# oracle in tests/reference or the seed oracles fails loudly and early),
# then the tier-1 suite, the compiled rung's speed floor, and the
# example/CLI/service smokes.
check: test-properties test bench-smoke smoke fault-smoke serve-smoke chaos-smoke

# tests/properties is excluded here only because `check` already ran it in
# its own stage; run `pytest -x -q` bare for the complete tier-1 sweep.
test:
	$(PYTHON) -m pytest -x -q --ignore=tests/properties

# The equivalence contracts, isolated: every engine name on every JIT rung is
# bit-identical to the object-model oracle in tests/reference
# (test_differential.py draws the cases, test_engine_equivalence.py pins the
# known ones), and the oracle, the router step and the numpy cost and
# routing kernels to the seed's oracles under tests/reference — among them
# test_gain_table_matches_the_per_pair_scan (NMAP's swap-gain table) and
# test_level_sweep_picks_the_dijkstra_path (min-path's quadrant sweep).
test-properties:
	$(PYTHON) -m pytest -q tests/properties

# The C rung against one compiler (CI runs this once per CC; `check` runs
# the rung under `auto` with the default cc only): the rung must resolve,
# the ladder / emitter / differential / equivalence tests run with it
# pinned, and the C emitted from the kernel twin must compile clean under
# the strictest warnings — the rung itself builds with plain -O2, so a
# warning there would otherwise go unseen.
check-cc: export REPRO_JIT := c
check-cc:
	$(PYTHON) -c "from repro.simnoc.engines import jit; b, why = jit.resolve_backend(); assert b is not None and b.name == 'c', why"
	$(PYTHON) -m pytest -q tests/properties/test_differential.py tests/properties/test_engine_equivalence.py \
		tests/simnoc/test_jit_ladder.py tests/simnoc/test_ckern.py
	$(PYTHON) -c "from repro.simnoc.engines import ckern; print(ckern.source())" \
		| $${CC:-cc} -x c -std=c99 -O2 -Wall -Wextra -Werror -c -o /dev/null -

# The one speed floor CI keeps: on the engine ladder's 8x8 saturation
# request, compiled vector >= 8x the interpreted sweep, the two legs
# interleaved in one process and best of five each, so host load slows both
# alike (skipped, with the reason printed, where no compiled rung resolves).
# Everything else is judged with bench-pairs below.
bench-smoke:
	$(PYTHON) scripts/bench_smoke.py

# End-to-end smoke: the quickstart example plus one torus mapping, one
# synthetic simulation named by the `event` alias (it runs the vector
# engine; the name must keep parsing and running) and one auto-resolved
# (vector) run at high load through the CLI — proves the repro.api facade,
# torus routing and the engine/traffic plumbing stay wired up.
smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) -m repro.cli list-engines
	$(PYTHON) -m repro.cli partition --topology mesh:16x16 --shards 4
	$(PYTHON) -m repro.cli map --app vopd --topology torus:4x4
	$(PYTHON) -m repro.cli simulate --app dsp --engine event --traffic uniform \
		--injection-rate 0.05 --vcs 2 --cycles 2000
	$(PYTHON) -m repro.cli simulate --app vopd --engine auto --traffic uniform \
		--injection-rate 0.25 --cycles 2000

# Fault-injection smoke: map and simulate through injected faults on a mesh
# and a torus (failed router, failed link, degraded link) — PMAP with its
# corner seed's router dead and the split-traffic swap loop with an interior
# one dead both used to raise — then the crash-proof batch demo: a custom
# mapper registered through the plugin API kills the process worker that
# runs it, and every other slot still completes
# (examples/fault_tolerance.py asserts it).
fault-smoke:
	$(PYTHON) -m repro.cli map --app vopd --topology mesh:5x4 --fail-router 5
	$(PYTHON) -m repro.cli map --app pip --topology mesh:3x4 --algorithm pmap --fail-router 0
	$(PYTHON) -m repro.cli map --app pip --topology mesh:3x4 --algorithm nmap-ta --fail-router 5
	$(PYTHON) -m repro.cli simulate --app pip --fail-link 3-4 --cycles 2000
	$(PYTHON) -m repro.cli map --app pip --topology torus:3x3 --fail-router 5
	$(PYTHON) -m repro.cli simulate --app vopd --topology torus:4x4 \
		--fail-link 5-6 --degrade-link 9-10:0.5 --cycles 2000
	$(PYTHON) examples/fault_tolerance.py

# Service smoke: a real `repro serve` subprocess (ephemeral port, on-disk
# store, process executor) driven over HTTP — the in-flight dedup contract
# (duplicate pair executes once, byte-identical bodies), warm and
# cold-restart store hits, ordered event streaming, one client's session
# riding a couple of kept connections, and a clean SIGTERM drain that does
# not wait out the kept connection — plus the in-process quickstart example.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) examples/service_quickstart.py

# Crash-durability smoke: SIGKILL a real server mid-batch, restart it on
# the same store, and prove the write-ahead journal replays the unfinished
# jobs under their original ids with byte-identical results — then boot
# past a torn journal tail.
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

# Paired end-to-end runs, base ref vs working tree, alternating which side
# goes first: `make bench-pairs BASE=HEAD~1 WORKLOAD=sim_saturation PAIRS=10`
# prints each side's medians and quartiles, pairs won/tied/lost and whether
# the gain rule (>= 9/10 pairs won, medians apart by more than the base's
# interquartile distance) is met.  An A/A leg (BASE against a second export
# of BASE, as many pairs) runs first and prints the instrument's own spread
# per metric; a difference inside it is never called a gain.  Ten pairs of
# one workload take ~15 min per leg.
PAIRS ?= 10
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

# Lines of python under src/: one row per top-level package (sub-packages
# counted in their parent, the simulation engines also on a row of their
# own), one for the modules at the top of the tree, then the total — the
# figures ROADMAP aim 2's line targets are read from.
loc:
	@for pkg in src/repro/*/ src/repro/simnoc/engines/; do \
		printf '%7d  %s\n' $$(find $$pkg -name '*.py' -exec cat {} + | wc -l) $$pkg; \
	done
	@printf '%7d  %s\n' $$(cat src/repro/*.py | wc -l) 'src/repro/*.py'
	@printf '%7d  %s\n' $$(find src -name '*.py' -exec cat {} + | wc -l) total
