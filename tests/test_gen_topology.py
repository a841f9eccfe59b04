"""Tests for repro.gen.topology."""

import random

from repro.gen.topology import ENTERPRISE_NET, Enterprise, Role, wan_address
from repro.util.addr import int_to_ip


class TestEnterprise:
    def test_subnet_counts(self, enterprise):
        assert len(enterprise.subnets_of_router(0)) == 22
        assert len(enterprise.subnets_of_router(1)) == 18

    def test_thousands_of_hosts(self, enterprise):
        assert enterprise.num_hosts > 2000

    def test_all_hosts_inside_enterprise_net(self, enterprise):
        for subnet in enterprise.subnets:
            for host in subnet.hosts:
                assert host.ip in ENTERPRISE_NET
                assert host.ip in subnet.subnet

    def test_unique_addresses(self, enterprise):
        ips = [host.ip for subnet in enterprise.subnets for host in subnet.hosts]
        macs = [host.mac for subnet in enterprise.subnets for host in subnet.hosts]
        assert len(ips) == len(set(ips))
        assert len(macs) == len(set(macs))

    def test_deterministic_from_seed(self):
        a = Enterprise(seed=5)
        b = Enterprise(seed=5)
        assert [s.subnet.network for s in a.subnets] == [s.subnet.network for s in b.subnets]
        assert [len(s.hosts) for s in a.subnets] == [len(s.hosts) for s in b.subnets]

    def test_different_seeds_differ(self):
        a = Enterprise(seed=5)
        b = Enterprise(seed=6)
        assert [len(s.hosts) for s in a.subnets] != [len(s.hosts) for s in b.subnets]

    def test_host_lookup(self, enterprise):
        host = enterprise.subnets[0].hosts[0]
        assert enterprise.host_by_ip(host.ip) is host
        assert enterprise.host_by_ip(1) is None


class TestServerPlacement:
    def test_mail_servers_behind_router0(self, enterprise):
        for role in (Role.SMTP_SERVER, Role.IMAP_SERVER, Role.AUTH_SERVER):
            servers = enterprise.servers(role)
            assert servers, role
            assert all(server.router == 0 for server in servers)

    def test_print_and_dns_behind_router1(self, enterprise):
        assert all(s.router == 1 for s in enterprise.servers(Role.PRINT_SERVER))
        assert all(s.router == 1 for s in enterprise.servers(Role.DNS_SERVER))

    def test_nbns_on_both_routers(self, enterprise):
        routers = {s.router for s in enterprise.servers(Role.NBNS_SERVER)}
        assert routers == {0, 1}

    def test_two_internal_scanners(self, enterprise):
        assert len(enterprise.servers(Role.SCANNER)) == 2

    def test_servers_keep_workstation_role(self, enterprise):
        server = enterprise.servers(Role.SMTP_SERVER)[0]
        assert server.is_server
        assert server.has_role(Role.SMTP_SERVER)

    def test_no_address_collision_between_roles_on_shared_subnet(self, enterprise):
        """Roles placed on the same subnet must land on distinct hosts."""
        for subnet in enterprise.subnets:
            role_hosts = [h for h in subnet.hosts if h.is_server]
            # Multi-role hosts are allowed only if the roles were placed
            # identically, which the placement table avoids.
            assert len(role_hosts) == len({h.ip for h in role_hosts})


class TestPeerPicking:
    def test_internal_peer_crosses_subnet(self, enterprise):
        rng = random.Random(3)
        for _ in range(50):
            peer = enterprise.pick_internal_peer(rng, exclude_index=0)
            assert peer.subnet_index != 0

    def test_workstation_pick(self, enterprise):
        rng = random.Random(3)
        host = enterprise.pick_workstation(rng, enterprise.subnets[1])
        assert host.subnet_index == 1

    def test_workstations_are_the_role_filtered_hosts(self, enterprise):
        for subnet in enterprise.subnets:
            assert subnet.workstations == [
                host for host in subnet.hosts if Role.WORKSTATION in host.roles
            ]

    def test_workstation_draws_are_pinned(self, enterprise):
        """A fixed-seed draw sequence: the generator's client picks (and
        so every generated trace) depend on it."""
        rng = random.Random(7)
        subnets = enterprise.subnets
        draws = [
            int_to_ip(enterprise.pick_workstation(rng, subnets[(5 * i) % len(subnets)]).ip)
            for i in range(12)
        ]
        assert draws == [
            "131.243.1.42", "131.243.6.20", "131.243.11.51", "131.243.16.84",
            "131.243.21.7", "131.243.104.19", "131.243.109.138", "131.243.114.13",
            "131.243.1.47", "131.243.6.75", "131.243.11.8", "131.243.16.65",
        ]


class TestWanAddress:
    def test_outside_enterprise(self):
        rng = random.Random(9)
        for _ in range(200):
            assert wan_address(rng) not in ENTERPRISE_NET

    def test_diversity(self):
        rng = random.Random(9)
        addresses = {wan_address(rng) for _ in range(500)}
        assert len(addresses) > 300
