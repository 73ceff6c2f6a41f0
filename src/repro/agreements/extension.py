"""Extension of agreement paths (§III-B3).

The path segments created by a mutuality-based agreement can themselves
become the subject of further agreements: in the paper's example, once
``a = [D(↑{A}); E(↑{B},→{F})]`` is in force, AS E gains the segment
``EDA`` and can offer that segment to its peer F in a follow-up
agreement ``a'`` (F offering something in return).  The follow-up
agreement is *dependent* on the base agreement: it can only be honoured
while the base agreement's conditions still hold.

This module models such segment offers and extension agreements and can
compute the longer paths they give rise to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agreements.agreement import Agreement, AgreementError, PathSegment


@dataclass(frozen=True)
class SegmentOffer:
    """An offer of access to an existing agreement path segment.

    ``owner`` is the AS offering the segment (it must be the beneficiary
    of that segment in the base agreement), ``segment`` the offered
    segment, ``base_agreement`` the agreement that created it.
    """

    owner: int
    segment: PathSegment
    base_agreement: Agreement

    def __post_init__(self) -> None:
        if self.segment.beneficiary != self.owner:
            raise AgreementError(
                f"AS {self.owner} cannot offer segment {self.segment.path}: it is not "
                "the beneficiary of that segment"
            )
        partner = self.segment.partner
        if (
            partner != self.base_agreement.counterparty(self.owner)
            or self.segment.target not in self.base_agreement.offer_by(partner).all_targets
        ):
            raise AgreementError(
                f"segment {self.segment.path} is not created for AS {self.owner} by "
                f"agreement {self.base_agreement}"
            )


@dataclass(frozen=True)
class ExtensionAgreement:
    """A follow-up agreement granting a third AS access to agreement segments.

    ``party_x`` / ``party_y`` are the parties of the extension;
    ``segment_offers_x`` are segments offered by ``party_x`` to
    ``party_y`` (and vice versa).  The type carries only segment offers;
    plain neighbor access stays a normal :class:`Agreement`.
    """

    party_x: int
    party_y: int
    segment_offers_x: tuple[SegmentOffer, ...] = field(default_factory=tuple)
    segment_offers_y: tuple[SegmentOffer, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.party_x == self.party_y:
            raise AgreementError("an extension agreement needs two distinct parties")
        made = ((self.party_x, self.segment_offers_x), (self.party_y, self.segment_offers_y))
        for party, offers in made:
            for offer in offers:
                if offer.owner != party:
                    raise AgreementError(
                        f"segment offer owned by AS {offer.owner} cannot be made by party "
                        f"{party}"
                    )

    def counterparty(self, party: int) -> int:
        """The other party of the extension agreement."""
        if party == self.party_x:
            return self.party_y
        if party == self.party_y:
            return self.party_x
        raise AgreementError(f"AS {party} is not a party of this extension agreement")

    def offers_to(self, party: int) -> tuple[SegmentOffer, ...]:
        """Segment offers the given party receives."""
        if self.counterparty(party) == self.party_x:
            return self.segment_offers_x
        return self.segment_offers_y

    def extended_paths_for(self, party: int) -> tuple[tuple[int, ...], ...]:
        """New (length-4) paths the given party gains from the extension.

        Each offered segment ``O–P–T`` owned by the counterparty ``O``
        becomes the path ``party – O – P – T``.
        """
        return tuple(
            (party, *offer.segment.path)
            for offer in self.offers_to(party)
            if party not in offer.segment.path
        )

    def depends_on(self) -> frozenset[int]:
        """Hash-identities of the base agreements this extension depends on.

        Interdependence matters because the conditions negotiated in the
        base agreement (flow-volume targets, cash compensation) must
        still be respected once the extension adds traffic to the shared
        segments (§III-B3).
        """
        offers = self.segment_offers_x + self.segment_offers_y
        return frozenset(id(offer.base_agreement) for offer in offers)


def figure1_extension_example(base: Agreement) -> ExtensionAgreement:
    """The §III-B3 example: E offers F access to the segment EDA.

    ``base`` must be the Fig. 1 mutuality agreement
    ``[D(↑{A}); E(↑{B},→{F})]``.
    """
    from repro.topology.fixtures import AS_A, AS_D, AS_E, AS_F

    segment = PathSegment(beneficiary=AS_E, partner=AS_D, target=AS_A)
    offer = SegmentOffer(owner=AS_E, segment=segment, base_agreement=base)
    return ExtensionAgreement(
        party_x=AS_E,
        party_y=AS_F,
        segment_offers_x=(offer,),
        segment_offers_y=(),
    )
