#!/bin/bash
# The one command BENCHMARK.json names: build and run the benchmark from
# source, from wherever the checkout is. Arguments go to the program
# (--workload, --seed, --seconds, --trace; see README.md).
exec go run -C "$(dirname "$0")" . "$@"
