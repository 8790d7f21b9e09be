//! The thirteen XPath axes (paper §3) plus the `id` pseudo-axis of §10.2.

use std::fmt;

/// An XPath axis: an interpreted binary relation over document nodes.
///
/// The paper defines each axis in terms of the primitive relations
/// `firstchild` and `nextsibling` (Table I); the `xpath-axes` crate
/// implements both that definition (Algorithm 3.2) and direct set-based
/// evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axis {
    /// `self::` — the identity relation.
    SelfAxis,
    /// `child::`
    Child,
    /// `parent::`
    Parent,
    /// `descendant::`
    Descendant,
    /// `ancestor::`
    Ancestor,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following::` — nodes after the context node in document order,
    /// excluding descendants, attributes and namespace nodes.
    Following,
    /// `preceding::` — nodes before the context node in document order,
    /// excluding ancestors, attributes and namespace nodes.
    Preceding,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `attribute::` — `child0(S) ∩ T(attribute())` (§4).
    Attribute,
    /// `namespace::` — `child0(S) ∩ T(namespace())` (§4).
    Namespace,
    /// The `id` pseudo-axis of §10.2: `{(x0, x) | x ∈ deref_ids(strval(x0))}`.
    /// Not concrete XPath syntax; produced by the `π1/id(π2)/π3 ≡
    /// π1/π2/id/π3` rewriting (Lemma 10.6).
    Id,
}

impl Axis {
    /// All thirteen standard axes (excludes the `id` pseudo-axis).
    pub const STANDARD: [Axis; 13] = [
        Axis::SelfAxis,
        Axis::Child,
        Axis::Parent,
        Axis::Descendant,
        Axis::Ancestor,
        Axis::DescendantOrSelf,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Attribute,
        Axis::Namespace,
    ];

    /// Parse an axis name as it appears before `::`.
    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "self" => Axis::SelfAxis,
            "child" => Axis::Child,
            "parent" => Axis::Parent,
            "descendant" => Axis::Descendant,
            "ancestor" => Axis::Ancestor,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            "namespace" => Axis::Namespace,
            _ => return None,
        })
    }

    /// The axis name as written in XPath.
    pub fn name(self) -> &'static str {
        match self {
            Axis::SelfAxis => "self",
            Axis::Child => "child",
            Axis::Parent => "parent",
            Axis::Descendant => "descendant",
            Axis::Ancestor => "ancestor",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
            Axis::Namespace => "namespace",
            Axis::Id => "id",
        }
    }

    /// The natural inverse of the axis (§10.1): `self⁻¹ = self`,
    /// `child⁻¹ = parent`, `descendant⁻¹ = ancestor`,
    /// `descendant-or-self⁻¹ = ancestor-or-self`, `following⁻¹ = preceding`,
    /// `following-sibling⁻¹ = preceding-sibling`, and vice versa.
    /// `attribute⁻¹` and `namespace⁻¹` are parent-like (the paper does not
    /// need them; we define them as `Parent` restricted by the engine).
    pub fn inverse(self) -> Axis {
        match self {
            Axis::SelfAxis => Axis::SelfAxis,
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::Ancestor => Axis::Descendant,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::Following => Axis::Preceding,
            Axis::Preceding => Axis::Following,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            // attribute/namespace relate element → special child; their
            // inverses relate special child → owner element. The axis engine
            // gives these two cases dedicated handling.
            Axis::Attribute => Axis::Parent,
            Axis::Namespace => Axis::Parent,
            Axis::Id => Axis::Id, // inverse handled specially (id⁻¹, Thm 10.7)
        }
    }

    /// Whether the axis is a *forward* axis: `<doc,χ` is document order (§4).
    /// For reverse axes `<doc,χ` is reverse document order.
    pub fn is_forward(self) -> bool {
        !matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
        )
    }

    /// The principal node type of the axis (§4): `attribute` for the
    /// attribute axis, `namespace` for the namespace axis, `element`
    /// otherwise.
    pub fn principal_kind(self) -> PrincipalKind {
        match self {
            Axis::Attribute => PrincipalKind::Attribute,
            Axis::Namespace => PrincipalKind::Namespace,
            _ => PrincipalKind::Element,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Principal node type of an axis (§4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrincipalKind {
    /// Elements (all axes except attribute/namespace).
    Element,
    /// Attribute nodes (the attribute axis).
    Attribute,
    /// Namespace nodes (the namespace axis).
    Namespace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_names() {
        for ax in Axis::STANDARD {
            assert_eq!(Axis::from_name(ax.name()), Some(ax));
        }
        assert_eq!(Axis::from_name("bogus"), None);
        assert_eq!(Axis::from_name("id"), None, "id is not parseable axis syntax");
    }

    #[test]
    fn inverses_are_involutions_lemma_10_1() {
        for ax in Axis::STANDARD {
            if matches!(ax, Axis::Attribute | Axis::Namespace) {
                continue; // special-cased in the engine
            }
            assert_eq!(ax.inverse().inverse(), ax, "{ax:?}");
        }
    }

    #[test]
    fn forwardness_matches_paper_section_4() {
        for ax in [
            Axis::SelfAxis,
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::FollowingSibling,
            Axis::Following,
        ] {
            assert!(ax.is_forward(), "{ax:?}");
        }
        for ax in [
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::Preceding,
            Axis::PrecedingSibling,
        ] {
            assert!(!ax.is_forward(), "{ax:?}");
        }
    }

    #[test]
    fn principal_kinds() {
        assert_eq!(Axis::Attribute.principal_kind(), PrincipalKind::Attribute);
        assert_eq!(Axis::Namespace.principal_kind(), PrincipalKind::Namespace);
        assert_eq!(Axis::Child.principal_kind(), PrincipalKind::Element);
        assert_eq!(Axis::Preceding.principal_kind(), PrincipalKind::Element);
    }
}
