"""Exception types raised across the package, each naming the stage that failed."""


class EpcIpv6Error(Exception):
    """Base class for every error this package raises deliberately.

    ``stage`` names the step that failed, and through it the CLI's exit code.
    """

    stage = "parse"


# --- tag URIs and the SGTIN-96 codec ---

class TagUriError(EpcIpv6Error):
    """Tag URI text does not match the expected grammar."""


class UnknownSchemeError(TagUriError):
    """Tag URI names a scheme this library does not parse."""


class FieldRangeError(EpcIpv6Error):
    """A numeric field does not fit its digit count or bit width."""


class WrongHeaderError(EpcIpv6Error):
    """An encoded EPC does not start with the header byte of its scheme."""


class InvalidPartitionError(EpcIpv6Error):
    """Partition value outside the 0..6 partition table."""


# --- IPv6 text ---

class Ipv6TextError(EpcIpv6Error):
    """Text is not a valid IPv6 address literal."""


# --- address derivation ---

class DerivationError(EpcIpv6Error):
    """Base class for address-derivation failures."""

    stage = "derive"


class MissingSerialError(DerivationError):
    """The chosen method needs a serial number the EPC does not carry."""


class MissingValueError(DerivationError):
    """The chosen method needs the full numeric EPC value, which is absent."""


class EpcTooWideError(DerivationError):
    """EPC wider than the 64 bits the method can embed."""


class SerialTooWideError(DerivationError):
    """Serial number wider than the method's payload field."""


class InvalidOptionError(DerivationError, ValueError):
    """A method's salt is out of range or its tag standard is unknown."""


# --- ONS registry ---

class RegistryError(EpcIpv6Error):
    """Registry file is unreadable or structurally invalid."""

    stage = "resolve"


class DuplicatePatternError(RegistryError):
    """Two registry records share the same pattern."""


class NoMatchError(EpcIpv6Error):
    """No registry record matches the EPC."""

    stage = "resolve"


# --- benchmark harness ---

class UnsatisfiableSpecError(EpcIpv6Error):
    """Population spec asks for more distinct EPCs than the scheme allows."""


class EvaluationError(EpcIpv6Error):
    """A resolve or derive call failed for one EPC of a population.

    Its text is ``<stage>: <message> (epc=<label>)``, the label being the
    EPC's URI, ``scheme:0x<value>`` or ``scheme:serial=<serial>``.
    """

    def __init__(self, stage: str, epc, message: str):
        super().__init__(stage, epc, message)  # so pickle and copy can call the class again
        self.stage = stage
        self.epc = epc

    def __str__(self):
        stage, epc, message = self.args
        return f"{stage}: {message} (epc={epc._label()})"
