"""§5.1: DHCP option/hostname/client-version census.

Paper: 86 devices request 30 different option types (incl. deprecated
SMTP Server / Name Server / Root Path); hostnames identified for 67% of
devices; 16 unique DHCP client versions from 40% of devices; 37 devices
use old or custom clients.
"""

from repro.core.discovery_census import dhcp_census, mdns_service_census
from repro.report.tables import render_comparison, render_table


def bench_sec51_dhcp(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    census = benchmark.pedantic(
        dhcp_census, args=(lab_index, maps["macs"]), rounds=1, iterations=1
    )
    total = len(testbed.devices)
    print()
    print(render_comparison([
        ("devices requesting DHCP options", 86, len(census.requesting_devices)),
        ("distinct option types requested", 30, len(census.requested_options)),
        ("devices requesting deprecated options", "present", len(census.deprecated_requesters)),
        ("devices with identified hostnames", "67%",
         f"{census.hostname_fraction(total):.0%}"),
        ("unique DHCP client versions", 16, len(census.unique_client_versions)),
        ("devices sending a client version", "40%",
         f"{census.version_fraction(total):.0%}"),
        ("old/custom DHCP clients", 37, len(census.old_or_custom_clients())),
    ], title="§5.1 DHCP — paper vs measured"))

    services = mdns_service_census(lab_index, maps["macs"])
    rows = [(family, len(devices)) for family, devices in sorted(services.by_family.items())]
    print()
    print(render_table(["mDNS service family", "devices revealing it"], rows,
                       title="§5.1 mDNS service families"))
    assert len(census.requesting_devices) == 86
    assert len(census.unique_client_versions) == 16
    assert len(census.old_or_custom_clients()) == 37
