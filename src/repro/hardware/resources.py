"""FPGA resource accounting types.

These classes are the "synthesis report" of the reproduction: every entity's
estimated ALUT / register / memory-bit / DSP usage is a
:class:`ResourceUsage`, and a :class:`ResourceReport` aggregates entities
into the tables published in the paper (Tables 1-4).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.hardware.estimator import FpgaDevice


@dataclass(frozen=True)
class ResourceUsage:
    """Resource usage of one hardware entity.

    Attributes mirror the columns of the paper's tables: adaptive look-up
    tables (ALUTs), flip-flop registers, embedded memory bits and 18-bit DSP
    multiplier blocks.
    """

    aluts: int = 0
    registers: int = 0
    memory_bits: int = 0
    dsp_blocks: int = 0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ConfigurationError(f"{name} cannot be negative")

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        if not isinstance(other, ResourceUsage):
            return NotImplemented
        return ResourceUsage(
            aluts=self.aluts + other.aluts,
            registers=self.registers + other.registers,
            memory_bits=self.memory_bits + other.memory_bits,
            dsp_blocks=self.dsp_blocks + other.dsp_blocks,
        )

    def as_dict(self) -> Dict[str, int]:
        """Dictionary form, keyed like the paper's table columns."""
        return asdict(self)


@dataclass
class ResourceReport:
    """Aggregated per-entity resource usage for one subsystem (TX or RX).

    ``entities`` maps entity name (as used in Tables 2 and 4) to its usage;
    ``glue`` is the signed usage per resource column that no named entity
    accounts for (control path, buffers, FIFOs; negative where synthesis
    merged logic across entities), so the totals can match the paper's
    system-level tables.
    """

    name: str
    entities: Dict[str, ResourceUsage] = field(default_factory=dict)
    glue: Dict[str, int] = field(default_factory=dict)

    def add_entity(self, entity_name: str, usage: ResourceUsage) -> None:
        """Add (or accumulate into) a named entity."""
        if entity_name in self.entities:
            self.entities[entity_name] = self.entities[entity_name] + usage
        else:
            self.entities[entity_name] = usage

    def total(self) -> ResourceUsage:
        """Entity sum plus the glue, each resource clipped at zero."""
        entity_sum = sum(self.entities.values(), ResourceUsage()).as_dict()
        return ResourceUsage(
            **{
                resource: max(0, used + self.glue.get(resource, 0))
                for resource, used in entity_sum.items()
            }
        )

    def utilization(self, device: "FpgaDevice") -> Dict[str, float]:
        """Percentage utilisation against a device's available resources."""
        return {
            resource: 100.0 * used / getattr(device, resource)
            for resource, used in self.total().as_dict().items()
        }

    def entity_share(self, entity_names: Iterable[str]) -> Dict[str, float]:
        """Fraction of each total resource consumed by the named entities.

        Used to reproduce the paper's claim that the channel-estimation and
        equalisation blocks account for 86 % of receiver ALUTs and 77 % of
        DSP multipliers.
        """
        selected = ResourceUsage()
        for name in entity_names:
            if name not in self.entities:
                raise KeyError(f"unknown entity: {name}")
            selected = selected + self.entities[name]
        total = self.total().as_dict()
        return {
            resource: (used / total[resource]) if total[resource] else 0.0
            for resource, used in selected.as_dict().items()
        }
