"""The modelled enterprise: routers, subnets, hosts, and server roles.

The paper's site (LBNL) had two central routers with 18-22 monitored
subnets each and several thousand internal hosts.  Server *placement*
drives many of the paper's observations — D0-D2 monitored the subnets
holding the main SMTP/IMAP servers and a major authentication server,
while D3-D4 monitored the main DNS/Netbios-NS servers and a major print
server — so placement is explicit here and the dataset configurations
select which router (and hence which servers) a dataset taps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random

from ..util.addr import Subnet, ip_to_int
from ..util.rng import SeedSequence

__all__ = ["Role", "Host", "EnterpriseSubnet", "Enterprise", "ENTERPRISE_NET"]

#: The enterprise address block; everything outside is "WAN" for locality.
ENTERPRISE_NET = Subnet.parse("131.243.0.0/16")

_MAC_BASE = 0x00A0C9000000  # an Intel OUI, host MACs assigned sequentially


class Role(enum.Enum):
    """What a host does; a host may hold several roles."""

    WORKSTATION = "workstation"
    WEB_SERVER = "web-server"
    SMTP_SERVER = "smtp-server"
    IMAP_SERVER = "imap-server"
    DNS_SERVER = "dns-server"
    NBNS_SERVER = "nbns-server"
    AUTH_SERVER = "auth-server"  # the domain controller (NetLogon/LsaRPC)
    PRINT_SERVER = "print-server"  # the Spoolss-heavy server of D3/D4
    FILE_SERVER_NFS = "nfs-server"
    FILE_SERVER_NCP = "ncp-server"
    FILE_SERVER_CIFS = "cifs-server"
    BACKUP_VERITAS = "veritas-server"
    BACKUP_DANTZ = "dantz-server"
    STREAM_SERVER = "stream-server"
    SCANNER = "scanner"  # the site's proactive vulnerability scanner
    GOOGLE_BOT = "google-bot"  # internal search-appliance crawler
    IFOLDER_SERVER = "ifolder-server"


@dataclass(eq=False)
class Host:
    """One enterprise host."""

    ip: int
    mac: int
    subnet_index: int
    router: int
    roles: set[Role] = field(default_factory=set)

    def has_role(self, role: Role) -> bool:
        return role in self.roles

    @property
    def is_server(self) -> bool:
        return bool(self.roles - {Role.WORKSTATION})

    def __hash__(self) -> int:
        return self.ip

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..util.addr import int_to_ip

        names = ",".join(sorted(role.value for role in self.roles)) or "host"
        return f"<Host {int_to_ip(self.ip)} {names}>"


@dataclass
class EnterpriseSubnet:
    """One monitored subnet: its prefix and resident hosts."""

    index: int
    router: int
    subnet: Subnet
    hosts: list[Host] = field(default_factory=list)

    @property
    def workstations(self) -> list[Host]:
        """Hosts usable as ordinary clients: all of them.

        Every host starts as a workstation and server placement only adds
        roles, so no scan is needed per client pick.
        """
        return self.hosts

    def servers(self, role: Role) -> list[Host]:
        """Hosts on this subnet holding ``role``."""
        return [host for host in self.hosts if role in host.roles]


# (role, router, subnet position, count) — the placement table.  Router 0
# corresponds to the D0-D2 tap and router 1 to the D3-D4 tap.
_PLACEMENTS: list[tuple[Role, int, int, int]] = [
    (Role.SMTP_SERVER, 0, 2, 2),  # the two main SMTP servers (D0-D2)
    (Role.IMAP_SERVER, 0, 2, 1),  # the main IMAP(/S) server (D0-D2)
    (Role.AUTH_SERVER, 0, 3, 1),  # the major authentication server of D0
    (Role.NBNS_SERVER, 0, 4, 1),  # one of the two main Netbios/NS servers
    (Role.NBNS_SERVER, 1, 2, 1),  # ... and the other (D3-D4)
    (Role.DNS_SERVER, 1, 1, 2),  # the main DNS servers (D3-D4)
    (Role.PRINT_SERVER, 1, 3, 1),  # the major print server of D3-D4
    (Role.FILE_SERVER_NFS, 0, 5, 2),
    (Role.FILE_SERVER_NFS, 1, 5, 2),
    (Role.FILE_SERVER_NCP, 0, 6, 3),  # NCP is heavier at the router-0 vantage
    (Role.FILE_SERVER_NCP, 1, 6, 1),
    (Role.FILE_SERVER_CIFS, 0, 7, 3),
    (Role.FILE_SERVER_CIFS, 1, 7, 3),
    (Role.BACKUP_VERITAS, 0, 8, 1),
    (Role.BACKUP_DANTZ, 0, 8, 1),
    (Role.BACKUP_VERITAS, 1, 8, 1),
    (Role.BACKUP_DANTZ, 1, 8, 1),
    (Role.WEB_SERVER, 0, 9, 4),
    (Role.WEB_SERVER, 1, 9, 4),
    (Role.STREAM_SERVER, 0, 10, 1),
    (Role.STREAM_SERVER, 1, 10, 1),
    (Role.SCANNER, 0, 1, 1),  # the 2 known internal scanners (§3)
    (Role.SCANNER, 1, 4, 1),
    (Role.GOOGLE_BOT, 0, 11, 2),  # google1 / google2 of Table 6
    (Role.GOOGLE_BOT, 1, 11, 2),
    (Role.IFOLDER_SERVER, 1, 12, 1),  # iFolder matters most in D4 (Table 6)
]


class Enterprise:
    """The generated site topology.

    Parameters
    ----------
    seed:
        Master seed; host placement is deterministic given it.
    subnets_router0, subnets_router1:
        Number of subnets behind each central router (22 and 18 in the
        paper's Table 1).
    hosts_per_subnet:
        Mean workstation count per subnet.
    """

    def __init__(
        self,
        seed: int = 0,
        subnets_router0: int = 22,
        subnets_router1: int = 18,
        hosts_per_subnet: int = 90,
    ) -> None:
        self.seed_seq = SeedSequence(seed).child("topology")
        rng = self.seed_seq.stream("layout")
        self.subnets: list[EnterpriseSubnet] = []
        self._servers: dict[Role, list[Host]] = {role: [] for role in Role}
        next_mac = _MAC_BASE
        index = 0
        for router, count in ((0, subnets_router0), (1, subnets_router1)):
            for position in range(count):
                prefix = Subnet(
                    ENTERPRISE_NET.network + (((router * 100) + position + 1) << 8), 24
                )
                subnet = EnterpriseSubnet(index=index, router=router, subnet=prefix)
                population = max(int(rng.gauss(hosts_per_subnet, hosts_per_subnet / 4)), 10)
                population = min(population, prefix.num_hosts)
                for host_index in range(population):
                    host = Host(
                        ip=prefix.host(host_index),
                        mac=next_mac,
                        subnet_index=index,
                        router=router,
                        roles={Role.WORKSTATION},
                    )
                    next_mac += 1
                    subnet.hosts.append(host)
                self.subnets.append(subnet)
                index += 1
        self._place_servers()
        self._host_by_ip = {
            host.ip: host for subnet in self.subnets for host in subnet.hosts
        }

    def _place_servers(self) -> None:
        by_router: dict[int, list[EnterpriseSubnet]] = {0: [], 1: []}
        for subnet in self.subnets:
            by_router[subnet.router].append(subnet)
        for role, router, position, count in _PLACEMENTS:
            candidates = by_router[router]
            subnet = candidates[position % len(candidates)]
            for offset in range(count):
                # Use hosts from the tail of the subnet so server addresses
                # do not collide across roles sharing a subnet.
                host = subnet.hosts[-(1 + offset + self._role_tail_offset(subnet, role))]
                host.roles.add(role)
                self._servers[role].append(host)

    @staticmethod
    def _role_tail_offset(subnet: EnterpriseSubnet, role: Role) -> int:
        """Distinct tail region per already-placed role on this subnet."""
        placed_roles = {
            existing
            for host in subnet.hosts
            for existing in host.roles
            if existing not in (Role.WORKSTATION, role)
        }
        return 4 * len(placed_roles)

    # -- lookups ---------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """Total internal hosts."""
        return len(self._host_by_ip)

    def host_by_ip(self, ip: int) -> Host | None:
        """The internal host with address ``ip``, if any."""
        return self._host_by_ip.get(ip)

    def servers(self, role: Role) -> list[Host]:
        """All hosts holding ``role``, site-wide."""
        return list(self._servers[role])

    def subnets_of_router(self, router: int) -> list[EnterpriseSubnet]:
        """The subnets attached to one central router."""
        return [subnet for subnet in self.subnets if subnet.router == router]

    def pick_workstation(self, rng: Random, subnet: EnterpriseSubnet) -> Host:
        """A random workstation on ``subnet``."""
        return rng.choice(subnet.workstations)

    def pick_peer_subnet(self, rng: Random, exclude_index: int) -> EnterpriseSubnet:
        """A random subnet other than ``exclude_index`` (cross-subnet peer)."""
        while True:
            subnet = rng.choice(self.subnets)
            if subnet.index != exclude_index:
                return subnet

    def pick_internal_peer(self, rng: Random, exclude_index: int) -> Host:
        """A random workstation on some *other* subnet.

        The router vantage point only sees traffic crossing the router,
        so internal peers always come from a different subnet.
        """
        subnet = self.pick_peer_subnet(rng, exclude_index)
        return self.pick_workstation(rng, subnet)

    @staticmethod
    def is_internal(ip: int) -> bool:
        """True when ``ip`` lies inside the enterprise block."""
        return ip in ENTERPRISE_NET


# A pool of WAN address blocks external peers are drawn from.
_WAN_BLOCKS = [
    ip_to_int("64.233.160.0"),
    ip_to_int("207.46.0.0"),
    ip_to_int("128.32.0.0"),
    ip_to_int("192.150.186.0"),
    ip_to_int("66.35.250.0"),
    ip_to_int("198.128.0.0"),
    ip_to_int("152.3.0.0"),
    ip_to_int("18.7.0.0"),
]


def wan_address(rng: Random, spread: int = 4096) -> int:
    """Draw a WAN peer address from one of several remote blocks.

    ``spread`` bounds the per-block host diversity, which controls how
    many distinct remote hosts a dataset accumulates (Table 1's "Remote
    Hosts" row grows with trace duration).
    """
    block = rng.choice(_WAN_BLOCKS)
    return block + rng.randrange(spread)
