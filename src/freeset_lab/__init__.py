"""Free sets, involution covers, and fragmentation checks.

The objects here are finite windows {0, ..., N-1} together with
fixed-point-free functions on them. Everything the library builds,
from three-class free partitions through coded block systems, comes
with an independent verifier so a construction is never its own
witness.

Import the modules themselves (`freeset_lab.funcgraph` and so on): the
package re-exports nothing, so a `freeset-lab` call loads only the
modules its subcommand uses.
"""
