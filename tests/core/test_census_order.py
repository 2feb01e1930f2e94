"""Figure 2's row order does not depend on ``PYTHONHASHSEED``.

``ProtocolCensus.rows`` sorts the union of its label sets by a
prevalence score, and scores tie: in the seed-7 reference study ARP and
DHCP both score 279, DHCPv6 and ICMPv6 168, DNS and IRC 3, HTTP.PROXY
and TELNET 2.  Without a tie-break the tied rows come out in set
iteration order, which string hashing changes from process to process,
so each child process below gets a different hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: (label, passive devices, scanned devices): five tied pairs, listed
#: against the alphabet so insertion order cannot pass for a tie-break.
TIED = [
    ("TELNET", 0, 2), ("HTTP.PROXY", 0, 2),
    ("OTHER-TCP", 17, 0), ("MATTER", 17, 0),
    ("IRC", 1, 0), ("DNS", 1, 0),
    ("ICMPv6", 56, 0), ("DHCPv6", 56, 0),
    ("DHCP", 93, 0), ("ARP", 90, 9),
]

SCRIPT = """
import json
import sys
from repro.core.protocol_census import ProtocolCensus

census = ProtocolCensus(total_devices=100)
for label, passive, scanned in json.loads(sys.argv[1]):
    census.passive[label] = {f"device-{index}" for index in range(passive)}
    if scanned:
        census.scanned[label] = {f"device-{index}" for index in range(scanned)}
print(" ".join(row["protocol"] for row in census.rows()))
"""


def _rows_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(TIED)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.split()


def test_row_order_is_the_same_under_every_hash_seed():
    expected = ["ARP", "DHCP", "DHCPv6", "ICMPv6", "MATTER", "OTHER-TCP",
                "DNS", "IRC", "HTTP.PROXY", "TELNET"]
    assert _rows_under(0) == expected
    assert _rows_under(1) == expected
